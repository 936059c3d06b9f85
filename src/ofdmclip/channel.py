"""AWGN channel.

End-to-end symbol-error counts, over an SNR grid, come from
``simulate.ser_errors``; the SER is its count over n_symbols * N.

SNR convention: per-complex-sample signal power over noise power at the
channel input, measured on the signal actually transmitted (i.e. after any
crest reduction).  With the unitary transforms and oversample L=1 this
equals Es/N0 per subcarrier; with L>1 the in-band Es/N0 is L times higher
because the noise spreads over all N*L bins while the signal occupies N.
"""
from __future__ import annotations

import numpy as np

from . import simulate
from .metrics import _mean_power


def awgn(signal: np.ndarray, snr_db: float, seed: int, stream: int = 0) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    Noise variance is mean|x|^2 / 10**(snr_db/10) per complex sample, split
    evenly between the real and imaginary parts.  The normals are the first
    2 * signal.size words of noise stream ``stream`` under ``seed`` (RNG
    contract v2, see ``simulate``), so the output is deterministic in
    (seed, stream).  snr_db=inf is the no-noise mode; NaN and -inf raise
    ValueError, and so do an SNR grid, an empty signal, one with NaN or inf
    samples, an SNR so low that the noise variance overflows, and a seed or
    stream outside [0, 2**64).
    """
    if np.ndim(snr_db) != 0:
        raise ValueError(f"snr_db must be one SNR point, got shape {np.shape(snr_db)}")
    simulate._check_snr(snr_db)
    seed, stream = simulate._check_u64(seed, "seed"), simulate._check_u64(stream, "stream index")
    signal = np.asarray(signal, dtype=np.complex128)
    power = _mean_power(signal.ravel(), "SNR")
    if np.isposinf(snr_db):
        return signal.copy()
    with np.errstate(over="ignore"):  # an overflowing variance is refused just below
        variance = power / 10.0 ** (snr_db / 10.0)
    if not np.isfinite(variance):
        raise ValueError(f"snr_db {snr_db} overflows the noise variance of mean power {power:g}")
    z = simulate._normals(seed, stream, stream + 1, signal.size)
    return signal + (np.sqrt(variance / 2.0) * z).reshape(signal.shape)
