"""Experiment runner: CCDF curves, SER sweeps, and window comparisons as CSV.

Config flags default to ``OfdmConfig()`` and ``ClipConfig()``.  A command reads
the ``OFDMCLIP_`` variable of each of its flags (``--cr-db`` -> ``OFDMCLIP_CR_DB``)
as that flag's default; explicit flags beat the environment.  Output is written
atomically — a failed run never leaves a partial CSV behind.

Exit codes: 0 success, 2 usage error, 3 CSV write error, 4 numeric, memory or worker error.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .crest import ClipConfig, STRATEGIES
from .metrics import ccdf_point_db, default_threshold_grid, estimate_ccdf
from .modulation import SUPPORTED_ORDERS
from .simulate import _check_run, _check_snr, papr_samples, ser_errors
from .transform import _OVERSAMPLE_CHOICES, OfdmConfig
from .windows import _KAISER_MAX_BETA, WINDOW_NAMES, WindowKind

ENV_PREFIX = "OFDMCLIP_"

SWEEP_WINDOWS = ("kaiser", "blackman", "hann", "hamming", "flattop")

# Longest SNR grid ``ser`` accepts; every point is a full SER count.
MAX_SNR_POINTS = 1000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: its own flags' ``OFDMCLIP_*`` variables replace their defaults."""

    def parse_known_args(self, args=None, namespace=None):
        for action in self._actions[1:]:  # [0] is --help
            name = ENV_PREFIX + action.dest.upper()
            if (raw := os.environ.get(name)) is not None:
                try:
                    action.default = (action.type or str)(raw)
                except ValueError as exc:
                    raise argparse.ArgumentTypeError(f"invalid {name}={raw!r}: {exc}")
        return super().parse_known_args(args, namespace)


def _add_common(p: argparse.ArgumentParser, default_out: str, with_strategy: bool = True):
    ofdm, clip = OfdmConfig(), ClipConfig()
    p.add_argument("--n", type=int, default=ofdm.n_subcarriers,
                   help="subcarrier count (power of two)")
    p.add_argument("--mod", type=int, choices=SUPPORTED_ORDERS, default=ofdm.mod_order,
                   help="constellation order")
    p.add_argument("--oversample", type=int, choices=_OVERSAMPLE_CHOICES,
                   default=ofdm.oversample, help="time-domain oversampling factor")
    p.add_argument("--cr-db", type=float, default=clip.clip_ratio_db,
                   help="clipping ratio over RMS in dB")
    p.add_argument("--iterations", type=int, default=clip.iterations,
                   help="clip-and-filter iteration count (0 = no crest reduction)")
    if with_strategy:
        p.add_argument("--clip", choices=STRATEGIES, default=clip.strategy,
                       help="strategy: none=hard clip, cf=clip+filter, pw=peak window")
        p.add_argument("--window", choices=WINDOW_NAMES, default=clip.window.name,
                       help="window used by the pw strategy")
    p.add_argument("--kaiser-beta", type=float, default=clip.window.beta,
                   help=f"kaiser window shape parameter, in [0, {_KAISER_MAX_BETA:g})")
    p.add_argument("--window-len", type=int, default=clip.window_len,
                   help="peak-window length in samples (odd)")
    p.add_argument("--symbols", type=int, default=10000,
                   help="number of OFDM symbols to simulate")
    p.add_argument("--seed", type=int, default=1, help="master RNG seed (64-bit unsigned)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes, at most one per CPU "
                        "(does not affect results)")
    p.add_argument("--out", default=default_out, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmclip",
        description="OFDM PAPR-reduction experiments (CCDF, SER, window sweep)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("ccdf", help="PAPR CCDF of random OFDM symbols")
    _add_common(p, "ccdf.csv")

    p = sub.add_parser("ser", help="symbol error rate over an SNR grid")
    _add_common(p, "ser.csv")
    p.add_argument("--snr-start", type=float, default=0.0)
    p.add_argument("--snr-stop", type=float, default=14.0)
    p.add_argument("--snr-step", type=float, default=2.0)

    p = sub.add_parser("window-sweep",
                       help="peak-window PAPR comparison across the five named windows")
    _add_common(p, "window_sweep.csv", with_strategy=False)
    p.set_defaults(clip="pw", window=SWEEP_WINDOWS[0])
    for p in sub.choices.values():
        # a usage error found after parsing prints the command's own usage line
        p.set_defaults(command_parser=p)
    return parser


def _configs(args, parser):
    try:
        ofdm = OfdmConfig(args.n, args.oversample, args.mod)
        kind = WindowKind(args.window, args.kaiser_beta)
        clip_cfg = ClipConfig(args.cr_db, args.iterations, args.clip, kind, args.window_len)
        _check_run(args.symbols, args.seed, args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    return ofdm, clip_cfg


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _run_ccdf(args, parser):
    ofdm, clip_cfg = _configs(args, parser)
    samples = papr_samples(ofdm, clip_cfg, args.symbols, args.seed, args.workers)
    curve = estimate_ccdf(samples, default_threshold_grid())
    lines = ["threshold_db,ccdf"]
    lines += [f"{t:g},{p:.6e}" for t, p in zip(curve.thresholds_db, curve.exceed_prob)]
    return lines, [f"mean_papr_db={samples.mean():.6f} ccdf3_papr_db={ccdf_point_db(samples):.6f}",
                   f"wrote {args.out} ({curve.n_samples} symbols)"]


def _snr_grid(args, parser) -> np.ndarray:
    for flag in ("start", "stop", "step"):
        value = getattr(args, "snr_" + flag)
        if not np.isfinite(value):
            parser.error(f"--snr-{flag} must be finite, got {value}")
    if args.snr_step <= 0:
        parser.error(f"--snr-step must be positive, got {args.snr_step}")
    # a float until checked: a tiny step gives more points than an int64 holds
    n_steps = np.floor((args.snr_stop - args.snr_start) / args.snr_step + 1e-9) + 1
    if n_steps < 1:
        parser.error(f"empty SNR grid: start {args.snr_start} > stop {args.snr_stop}")
    if n_steps > MAX_SNR_POINTS:
        parser.error(f"--snr-step {args.snr_step:g} gives {n_steps:.4g} SNR points; "
                     f"at most {MAX_SNR_POINTS} are allowed")
    grid = args.snr_start + args.snr_step * np.arange(int(n_steps))
    try:
        _check_snr(grid)
    except ValueError as exc:
        parser.error(str(exc))
    return grid


def _run_ser(args, parser):
    grid = _snr_grid(args, parser)
    ofdm, clip_cfg = _configs(args, parser)
    errors = ser_errors(ofdm, clip_cfg, grid, args.symbols, args.seed, args.workers)
    sent = args.symbols * ofdm.n_subcarriers
    lines = ["snr_db,symbols,errors,ser"]
    lines += [f"{snr:g},{sent},{e},{e / sent:.6e}" for snr, e in zip(grid, errors.tolist())]
    return lines, [f"wrote {args.out} ({grid.size} SNR points)"]


def _run_window_sweep(args, parser):
    ofdm, clip_cfg = _configs(args, parser)
    clip_cfgs = [replace(clip_cfg, window=replace(clip_cfg.window, name=name))
                 for name in SWEEP_WINDOWS]
    # one pass: the unclipped baseline is the last row
    *swept, baseline = papr_samples(ofdm, clip_cfgs + [None], args.symbols, args.seed,
                                    args.workers)
    lines = ["window,mean_papr_db,ccdf3_papr_db"]
    lines += [f"{name},{samples.mean():.6f},{ccdf_point_db(samples):.6f}"
              for name, samples in zip(SWEEP_WINDOWS, swept)]
    return lines, [f"unclipped mean_papr_db={baseline.mean():.6f} "
                   f"ccdf3_papr_db={ccdf_point_db(baseline):.6f}", f"wrote {args.out}"]


# each command returns its CSV lines and the lines it prints once they are written
_COMMANDS = {"ccdf": _run_ccdf, "ser": _run_ser, "window-sweep": _run_window_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentTypeError as exc:  # a malformed OFDMCLIP_* value
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        lines, notes = _COMMANDS[args.command](args, args.command_parser)
    except OSError as exc:  # nothing is written yet: os.fork or os.pipe failed
        print(f"worker error: cannot start --workers {args.workers}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy and the allocator often raise it bare
        what = str(exc) or (f"{args.command} --symbols {args.symbols} needs more memory "
                            "than there is")
        print(f"memory error: {what}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _write_atomic(args.out, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"I/O error writing {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print("\n".join(notes))
    return EXIT_OK


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
