"""PAPR measurement and Monte Carlo CCDF estimation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical exceedance curve: P(PAPR > threshold) per threshold."""

    thresholds_db: np.ndarray
    exceed_prob: np.ndarray
    n_samples: int


def papr_db(signal: np.ndarray) -> float | np.ndarray:
    """Peak-to-average power ratio in dB, 10*log10(max|x|^2 / mean|x|^2),
    along the last axis.

    A 1-D input yields a float; an input of more axes yields one value per
    row.  A 0-D input, empty rows, NaN or inf samples and all-zero rows raise
    ValueError.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    if signal.shape[-1:] in ((), (0,)):
        raise ValueError(f"PAPR needs non-empty rows, got {signal.shape or 'a scalar'}")
    with np.errstate(all="ignore"):  # 0/0 or inf/inf, reported just below
        out = _kernels.papr_db_rows(signal)
    if not np.isfinite(out).all():
        raise ValueError("PAPR must be finite; an all-zero row or NaN or inf samples have none")
    return float(out) if signal.ndim == 1 else out


def _mean_power(signal: np.ndarray, what: str) -> np.ndarray:
    """Mean |x|^2 along the last axis; a 0-D signal, an empty row, NaN, inf or
    overflowing samples and an all-zero row raise ValueError naming ``what``."""
    shape = np.shape(signal)
    if shape[-1:] in ((), (0,)):
        raise ValueError(f"{what} needs non-empty rows, got {shape or 'a scalar'}")
    mag = np.abs(signal)
    with np.errstate(over="ignore"):  # an overflowing |x|^2 is reported just below
        # in place; np.multiply, not np.square, which has no loop for bool
        power = np.mean(np.multiply(mag, mag, out=mag), axis=-1)
    if not np.isfinite(power).all():
        raise ValueError(f"{what} needs finite samples (no NaN, inf or overflowing power)")
    if not power.all():
        raise ValueError(f"{what} is undefined for an all-zero row")
    return power


def default_threshold_grid() -> np.ndarray:
    """4.0 to 13.0 dB in 0.25 dB steps."""
    return np.arange(16, 53) * 0.25


def _samples(papr_samples) -> np.ndarray:
    """The samples as a flat float array; empty or non-finite raise ValueError."""
    samples = np.asarray(papr_samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("need at least one PAPR sample")
    if not np.isfinite(samples).all():
        raise ValueError("PAPR samples must be finite (no NaN or inf)")
    return samples


def estimate_ccdf(papr_samples: np.ndarray, thresholds_db: np.ndarray) -> CcdfCurve:
    """Fraction of samples strictly above each threshold; non-finite samples
    or thresholds raise ValueError."""
    samples = np.sort(_samples(papr_samples))
    thresholds = np.asarray(thresholds_db, dtype=float).ravel()
    if thresholds.size == 0:
        raise ValueError("need at least one threshold")
    if not np.isfinite(thresholds).all():
        raise ValueError("thresholds must be finite (no NaN or inf)")
    if thresholds.size > 1 and not (np.diff(thresholds) > 0).all():
        raise ValueError("thresholds must be strictly ascending")
    above = samples.size - np.searchsorted(samples, thresholds, side="right")
    return CcdfCurve(thresholds, above / samples.size, samples.size)


def ccdf_point_db(papr_samples: np.ndarray, prob: float = 1e-3) -> float:
    """The PAPR level exceeded with the given probability (empirical
    quantile); non-finite samples raise ValueError.

    Equal to ``float(np.quantile(samples, 1 - prob))``: numpy's default
    linear quantile, with its two-sided interpolation (``_lerp``), taken
    here from one sort.  ``np.quantile`` itself goes through ``np.unique``,
    which imports all of ``numpy.ma``, some 10 ms of every CLI run.
    """
    samples = _samples(papr_samples)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    s = np.sort(samples)
    v = (s.size - 1) * (1.0 - prob)
    i = int(v)
    g = v - i
    lo, hi = s[i], s[min(i + 1, s.size - 1)]
    # numpy's _lerp: interpolate from the nearer end, so g = 1 gives hi exactly
    if g >= 0.5:
        return float(hi - (hi - lo) * (1.0 - g))
    return float(lo + (hi - lo) * g)
