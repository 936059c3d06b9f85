import os
import warnings

import numpy as np
import pytest

from ofdmclip.cli import main


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
        ["window-sweep", "--clip", "cf"],
        ["window-sweep", "--window", "hann"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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


def test_unsupported_env_mod_is_usage_error(tmp_path, monkeypatch):
    # argparse checks choices on flags only, so OfdmConfig checks the default
    monkeypatch.setenv("OFDMCLIP_MOD", "5")
    with pytest.raises(SystemExit) as exc:
        main(["ccdf", "--symbols", "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["ccdf", "ser"])
def test_erased_symbol_exits_4(tmp_path, capsys, command):
    # a rect peak window of 255 samples on N*L = 256 zeroes whole rows
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--clip", "pw", "--window", "rect", "--window-len", "255",
                     "--symbols", "200", "--out", str(out)]) == 4
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
