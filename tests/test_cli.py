import argparse
import errno
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ofdmclip import (DEFAULT_KAISER_BETA, STRATEGIES, SUPPORTED_ORDERS, WINDOW_NAMES,
                      ClipConfig, OfdmConfig)
from ofdmclip import cli, simulate
from ofdmclip.cli import SWEEP_WINDOWS, build_parser, main
from ofdmclip.transform import _OVERSAMPLE_CHOICES, MAX_ROW_SAMPLES

SRC = Path(__file__).resolve().parent.parent / "src"


def run(tmp_path, *argv, expect=0):
    code = main(list(argv))
    assert code == expect
    return code


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(path):
    rows = read(path).decode().strip().split("\n")
    header = rows[0].split(",")
    body = [r.split(",") for r in rows[1:]]
    return header, body


def test_ccdf_basic(tmp_path, capsys):
    out = str(tmp_path / "ccdf.csv")
    run(tmp_path, "ccdf", "--symbols", "800", "--seed", "1", "--out", out)
    header, body = parse_csv(out)
    assert header == ["threshold_db", "ccdf"]
    assert len(body) == 37
    probs = [float(r[1]) for r in body]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert "mean_papr_db=" in capsys.readouterr().out


def test_ccdf_repeat_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(tmp_path, "ccdf", "--symbols", "500", "--seed", "3", "--out", a)
    run(tmp_path, "ccdf", "--symbols", "500", "--seed", "3", "--out", b)
    assert read(a) == read(b)


def test_ccdf_worker_count_does_not_change_bytes(tmp_path):
    a = str(tmp_path / "w1.csv")
    b = str(tmp_path / "w2.csv")
    run(tmp_path, "ccdf", "--symbols", "600", "--workers", "1", "--out", a)
    run(tmp_path, "ccdf", "--symbols", "600", "--workers", "2", "--out", b)
    assert read(a) == read(b)


def test_more_iterations_lower_ccdf_point(tmp_path, capsys):
    def ccdf3(iters):
        out = str(tmp_path / f"k{iters}.csv")
        run(tmp_path, "ccdf", "--symbols", "3000", "--clip", "cf",
            "--iterations", iters, "--cr-db", "3", "--out", out)
        line = [l for l in capsys.readouterr().out.splitlines() if "ccdf3" in l][0]
        return float(line.split("ccdf3_papr_db=")[1])

    assert ccdf3("5") < ccdf3("1")


def test_clip_none_runs(tmp_path):
    out = str(tmp_path / "none.csv")
    run(tmp_path, "ccdf", "--symbols", "300", "--clip", "none", "--out", out)
    assert os.path.exists(out)


def test_ser_basic(tmp_path):
    out = str(tmp_path / "ser.csv")
    run(tmp_path, "ser", "--symbols", "100", "--iterations", "0",
        "--snr-start", "2", "--snr-stop", "8", "--snr-step", "2", "--out", out)
    header, body = parse_csv(out)
    assert header == ["snr_db", "symbols", "errors", "ser"]
    assert [r[0] for r in body] == ["2", "4", "6", "8"]
    for r in body:
        assert int(r[1]) == 100 * 64
        assert float(r[3]) == pytest.approx(int(r[2]) / (100 * 64), rel=1e-6)


def test_ser_higher_order_worse_rowwise(tmp_path):
    def sers(mod):
        out = str(tmp_path / f"mod{mod}.csv")
        run(tmp_path, "ser", "--symbols", "150", "--mod", mod, "--iterations", "0",
            "--snr-start", "4", "--snr-stop", "10", "--snr-step", "3", "--out", out)
        return [float(r[3]) for r in parse_csv(out)[1]]

    for hi, lo in zip(sers("64"), sers("4")):
        assert hi >= lo


def test_ser_empty_grid_is_usage_error(tmp_path):
    out = str(tmp_path / "never.csv")
    with pytest.raises(SystemExit) as exc:
        main(["ser", "--snr-start", "10", "--snr-stop", "0", "--out", out])
    assert exc.value.code == 2
    assert not os.path.exists(out)


def test_window_sweep(tmp_path):
    out = str(tmp_path / "sweep.csv")
    run(tmp_path, "window-sweep", "--symbols", "400", "--out", out)
    header, body = parse_csv(out)
    assert header == ["window", "mean_papr_db", "ccdf3_papr_db"]
    assert [r[0] for r in body] == ["kaiser", "blackman", "hann", "hamming", "flattop"]
    out2 = str(tmp_path / "sweep2.csv")
    run(tmp_path, "window-sweep", "--symbols", "400", "--out", out2)
    assert read(out) == read(out2)


def test_env_variable_overrides_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OFDMCLIP_SYMBOLS", "123")
    out = str(tmp_path / "env.csv")
    run(tmp_path, "ccdf", "--out", out)
    assert "(123 symbols)" in capsys.readouterr().out


def test_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OFDMCLIP_SYMBOLS", "123")
    out = str(tmp_path / "env2.csv")
    run(tmp_path, "ccdf", "--symbols", "77", "--out", out)
    assert "(77 symbols)" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path):
    for argv in (
        ["ccdf", "--mod", "5"],
        ["ccdf", "--window-len", "10"],
        ["ccdf", "--n", "48"],
        ["ccdf", "--symbols", "0"],
        ["ccdf", "--workers", "0"],
        ["ccdf", "--cr-db", "1e6"],
        ["ccdf", "--cr-db=-1e6"],
        ["ccdf", "--kaiser-beta", "1e9"],
        ["ser", "--snr-step", "-1"],
        ["ser", "--snr-start", "nan"],
        ["ser", "--snr-step", "nan"],
        ["ser", "--snr-stop", "inf"],
        ["ser", "--snr-step", "1e-300"],
        ["ser", "--snr-step", "1e-3"],
        ["ser", "--snr-start", "-3100", "--snr-stop", "-3100"],
        ["ser", "--snr-start", "5000", "--snr-stop", "5000"],
        ["window-sweep", "--clip", "cf"],
        ["window-sweep", "--window", "hann"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ccdf", "--n", "48"],
    ["ser", "--snr-start", "5000", "--snr-stop", "5000"],
    ["window-sweep", "--iterations", "-1"],
], ids=lambda argv: argv[0])
def test_usage_error_after_parsing_prints_the_command_usage(capsys, argv):
    # found by the config or SNR-grid checks, not by argparse itself
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ofdmclip {argv[0]} [-h]")
    assert f"ofdmclip {argv[0]}: error: " in err


def test_snr_grid_cap_names_step(capsys):
    from ofdmclip.cli import MAX_SNR_POINTS
    step = 14.0 / MAX_SNR_POINTS  # MAX_SNR_POINTS + 1 points from 0 to 14 dB
    with pytest.raises(SystemExit):
        main(["ser", "--snr-step", str(step)])
    err = capsys.readouterr().err
    assert "--snr-step" in err and str(MAX_SNR_POINTS) in err


def test_bad_env_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OFDMCLIP_SYMBOLS", "lots")
    assert main(["ccdf", "--out", str(tmp_path / "x.csv")]) == 2
    assert "OFDMCLIP_SYMBOLS" in capsys.readouterr().err


def test_env_value_applies_only_to_its_command(tmp_path, monkeypatch, capsys):
    # ccdf has no --snr-step, so it never reads OFDMCLIP_SNR_STEP
    monkeypatch.setenv("OFDMCLIP_SNR_STEP", "lots")
    assert main(["ccdf", "--symbols", "20", "--out", str(tmp_path / "c.csv")]) == 0
    capsys.readouterr()
    assert main(["ser", "--symbols", "20", "--out", str(tmp_path / "s.csv")]) == 2
    assert "OFDMCLIP_SNR_STEP" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_unsupported_env_mod_is_usage_error(tmp_path, monkeypatch):
    # argparse checks choices on flags only, so OfdmConfig checks the default
    monkeypatch.setenv("OFDMCLIP_MOD", "5")
    with pytest.raises(SystemExit) as exc:
        main(["ccdf", "--symbols", "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["ccdf", "ser"])
def test_erased_symbol_exits_4(tmp_path, capsys, command):
    # a rect peak window of 255 samples on N*L = 256 zeroes whole rows, also
    # in the children of a 2-worker run
    out = tmp_path / "x.csv"
    for workers in ("1", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--clip", "pw", "--window", "rect", "--window-len", "255",
                         "--symbols", "200", "--workers", workers, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "all-zero row" in err and "RuntimeWarning" not in err
        assert not out.exists()


def test_seed_out_of_range_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ccdf", "--seed", str(2**64), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_unwritable_path_exits_3(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    code = main(["ccdf", "--symbols", "50", "--out", out])
    assert code == 3
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_csv_mode_follows_umask(tmp_path, umask, mode):
    # the CSV gets the mode a plain open() would give it, not mkstemp's 0600
    out = tmp_path / "x.csv"
    old = os.umask(umask)
    try:
        run(tmp_path, "ccdf", "--symbols", "20", "--out", str(out))
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("command", ["ccdf", "ser", "window-sweep"])
def test_parser_defaults_are_the_config_defaults(monkeypatch, command):
    for name in list(os.environ):
        if name.startswith("OFDMCLIP_"):
            monkeypatch.delenv(name)
    ofdm, clip = OfdmConfig(), ClipConfig()
    expected = {"n": ofdm.n_subcarriers, "oversample": ofdm.oversample, "mod": ofdm.mod_order,
                "cr_db": clip.clip_ratio_db, "iterations": clip.iterations,
                "clip": clip.strategy, "window": clip.window.name,
                "kaiser_beta": DEFAULT_KAISER_BETA, "window_len": clip.window_len}
    choices = {"mod": SUPPORTED_ORDERS, "oversample": _OVERSAMPLE_CHOICES,
               "clip": STRATEGIES, "window": WINDOW_NAMES}
    if command == "window-sweep":  # no --clip or --window: its set_defaults fix them
        expected.update(clip="pw", window=SWEEP_WINDOWS[0])
        del choices["clip"], choices["window"]
    parser = build_parser()
    args = vars(parser.parse_args([command]))
    assert {dest: args[dest] for dest in expected} == expected
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert {a.dest: a.choices for a in commands[command]._actions if a.choices} == choices


def subprocess_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("OFDMCLIP_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_exit_codes(tmp_path):
    env = subprocess_env()

    def ofdmclip(*argv):
        return subprocess.run([sys.executable, "-m", "ofdmclip", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = ofdmclip("ccdf", "--symbols", "20", "--out", str(tmp_path / "c.csv"))
    assert done.returncode == 0, done.stderr
    assert "(20 symbols)" in done.stdout and (tmp_path / "c.csv").exists()
    done = ofdmclip("ccdf", "--mod", "5", "--out", str(tmp_path / "x.csv"))
    assert done.returncode == 2 and "--mod" in done.stderr
    assert not (tmp_path / "x.csv").exists()


def test_lowest_snr_point_runs_clean(tmp_path):
    # -3000 and +3000 dB run with every warning an error; at -3100 dB the
    # noise power overflows and at +5000 dB 10**(snr/10) does, usage errors
    # before anything is simulated
    def ser_at(snr):
        return subprocess.run([sys.executable, "-W", "error", "-m", "ofdmclip", "ser",
                               "--snr-start", snr, "--snr-stop", snr, "--symbols", "2",
                               "--out", str(tmp_path / f"{snr}.csv")],
                              env=subprocess_env(), capture_output=True, text=True, timeout=120)

    done = ser_at("-3000")
    assert done.returncode == 0 and done.stderr == ""
    done = ser_at("-3100")
    assert done.returncode == 2 and "snr_db must be at least -3000 dB" in done.stderr
    assert not (tmp_path / "-3100.csv").exists()
    done = ser_at("3000")
    assert done.returncode == 0 and done.stderr == ""
    done = ser_at("5000")
    assert done.returncode == 2 and "at most +3000 dB" in done.stderr
    assert not (tmp_path / "5000.csv").exists()


def test_no_command_imports_numpy_random(tmp_path):
    # the engine computes its own Philox words and quantiles, and a parallel
    # run forks its children itself: numpy.random's import alone costs
    # several MiB of peak RSS, numpy.ma's and a process pool's about 10 ms
    # each; no serial run before the last, parallel one loads the fork runner
    tail = ["--symbols", "20", "--out", str(tmp_path / "x.csv")]
    commands = [*(["ccdf", "--clip", clip, *tail] for clip in STRATEGIES),
                ["ser", "--workers", "1", *tail], ["window-sweep", *tail],
                ["ser", "--workers", "2", *tail]]
    unused = ["numpy.ma", "numpy.random", "concurrent.futures.process", "multiprocessing"]
    script = ("import sys\nfrom ofdmclip import cli\n"
              f"for argv in {commands!r}:\n"
              "    assert 'ofdmclip._fork' not in sys.modules\n"
              "    assert cli.main(argv) == 0\n"
              f"print([name for name in {unused!r} if name in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_row_size_cap_is_usage_error(tmp_path, capsys):
    # checked when the config is built, so nothing is allocated
    with pytest.raises(ValueError, match="at most"):
        OfdmConfig(2**40, 8)
    OfdmConfig(MAX_ROW_SAMPLES // 8, 8)
    with pytest.raises(ValueError, match=str(MAX_ROW_SAMPLES)):
        OfdmConfig(MAX_ROW_SAMPLES, 2)
    with pytest.raises(SystemExit) as exc:
        main(["ccdf", "--n", str(2**40), "--oversample", "8", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "at most" in capsys.readouterr().err


def test_memory_error_exits_4(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    def parser_then_no_memory():
        # building the parser may build a constellation with np.empty, unless
        # an earlier test cached it; only the run itself finds no memory
        parser = build_parser()
        monkeypatch.setattr(np, "empty", no_memory)
        return parser

    monkeypatch.setattr(cli, "build_parser", parser_then_no_memory)
    out = tmp_path / "x.csv"
    assert main(["ccdf", "--symbols", "20", "--out", str(out)]) == 4
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err == "memory error: Unable to allocate 16.0 TiB for an array\n"
    assert not out.exists()


def test_fork_failure_exits_4_naming_the_workers(tmp_path, capsys, monkeypatch):
    # os.fork fails as it does at a process limit, so no process is forked
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    out = tmp_path / "x.csv"
    assert main(["ser", "--symbols", "300", "--workers", "2", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("worker error: cannot start --workers 2: "
                            f"[Errno {errno.EAGAIN}] Resource temporarily unavailable\n")
    assert not out.exists()


def test_bare_memory_error_names_the_run(tmp_path, capsys, monkeypatch):
    # a MemoryError with no text still says what ran out
    def no_memory(args, parser):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "ccdf", no_memory)
    out = tmp_path / "x.csv"
    assert main(["ccdf", "--symbols", "1000000000000", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("memory error: ccdf --symbols 1000000000000 needs more memory "
                            "than there is\n")
    assert not out.exists()
