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
    """Peak-to-average power ratio in dB, 10*log10(max|x|^2 / mean|x|^2).

    A 1-D input yields a float; a 2-D input yields one value per row.
    NaN or inf samples raise ValueError.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    batched = signal.ndim == 2
    rows = signal if batched else signal.reshape(1, -1)
    if not np.isfinite(rows).all():
        raise ValueError("PAPR of a signal with NaN or inf samples is undefined")
    if not (np.abs(rows) ** 2).sum(axis=1).all():
        raise ValueError("PAPR of an all-zero signal is undefined")
    out = _kernels.papr_db_rows(rows)
    return out if batched else float(out[0])


def default_threshold_grid() -> np.ndarray:
    """4.0 to 13.0 dB in 0.25 dB steps."""
    return np.arange(16, 53) * 0.25


def estimate_ccdf(papr_samples: np.ndarray, thresholds_db: np.ndarray) -> CcdfCurve:
    """Fraction of samples strictly above each threshold."""
    samples = np.sort(np.asarray(papr_samples, dtype=float).ravel())
    if samples.size == 0:
        raise ValueError("need at least one PAPR sample")
    thresholds = np.asarray(thresholds_db, dtype=float).ravel()
    if thresholds.size == 0:
        raise ValueError("need at least one threshold")
    if thresholds.size > 1 and not (np.diff(thresholds) > 0).all():
        raise ValueError("thresholds must be strictly ascending")
    above = samples.size - np.searchsorted(samples, thresholds, side="right")
    return CcdfCurve(thresholds, above / samples.size, samples.size)


def ccdf_point_db(papr_samples: np.ndarray, prob: float = 1e-3) -> float:
    """The PAPR level exceeded with the given probability (empirical quantile)."""
    samples = np.asarray(papr_samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("need at least one PAPR sample")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    return float(np.quantile(samples, 1.0 - prob))
