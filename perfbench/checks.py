"""Output checks for one ofdmclip CLI invocation.

The checks follow the CSV schemas in the README and the invariants every
correct run satisfies.  They pin no seed-specific bytes, so a declared change
of the RNG contract does not read as a failure.
"""
from __future__ import annotations

import math

HEADERS = {
    "ccdf": "threshold_db,ccdf",
    "ser": "snr_db,symbols,errors,ser",
    "window-sweep": "window,mean_papr_db,ccdf3_papr_db",
}

# Row order of ``window-sweep`` (``ofdmclip.cli.SWEEP_WINDOWS``), kept here so
# the check does not follow the program it checks.
SWEEP_WINDOWS = ("kaiser", "blackman", "hann", "hamming", "flattop")


def flag_value(argv: list[str], name: str, default: str) -> str:
    """Value of ``--name`` in an argv list, or ``default`` when absent."""
    return argv[argv.index(name) + 1] if name in argv else default


def check_csv(argv: list[str], text: str) -> str | None:
    """Return what is wrong with the CSV written for ``argv``, or None."""
    lines = text.splitlines()
    command = argv[0]
    if not lines or lines[0] != HEADERS[command]:
        return f"header {lines[:1]} != {HEADERS[command]!r}"
    try:
        rows = [line.split(",") for line in lines[1:]]
        if command == "ccdf":
            return _check_ccdf(rows)
        if command == "ser":
            sent = int(flag_value(argv, "--symbols", "10000")) * int(flag_value(argv, "--n", "64"))
            return _check_ser(rows, sent)
        return _check_sweep(rows)
    except ValueError as exc:
        return f"unparsable row: {exc}"


def _check_ccdf(rows) -> str | None:
    if not rows:
        return "no CCDF rows"
    thresholds = [float(t) for t, _ in rows]
    probs = [float(p) for _, p in rows]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        return "thresholds not strictly ascending"
    if any(not 0.0 <= p <= 1.0 for p in probs):
        return "CCDF value outside [0, 1]"
    if any(b > a for a, b in zip(probs, probs[1:])):
        return "CCDF increases"
    return None


def _check_ser(rows, sent: int) -> str | None:
    if not rows:
        return "no SER rows"
    for snr, symbols, errors, ser in rows:
        symbols, errors, ser = int(symbols), int(errors), float(ser)
        if symbols != sent:
            return f"snr {snr}: {symbols} symbols sent, expected {sent}"
        if not 0 <= errors <= symbols:
            return f"snr {snr}: {errors} errors for {symbols} symbols"
        if not 0.0 <= ser <= 1.0 or not math.isclose(ser, errors / symbols, rel_tol=1e-6):
            return f"snr {snr}: ser {ser} does not match {errors}/{symbols}"
    return None


def _check_sweep(rows) -> str | None:
    names = tuple(row[0] for row in rows)
    if names != SWEEP_WINDOWS:
        return f"window rows {names} != {SWEEP_WINDOWS}"
    if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
        return "non-finite PAPR value"
    return None
