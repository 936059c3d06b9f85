"""AWGN channel and end-to-end symbol-error-rate measurement.

SNR convention: per-complex-sample signal power over noise power at the
channel input, measured on the signal actually transmitted (i.e. after any
crest reduction).  With the unitary transforms and oversample L=1 this
equals Es/N0 per subcarrier; with L>1 the in-band Es/N0 is L times higher
because the noise spreads over all N*L bins while the signal occupies N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulate
from .crest import ClipConfig
from .metrics import _mean_power
from .transform import OfdmConfig


@dataclass(frozen=True)
class SerPoint:
    """One SNR point: counts are constellation symbols, not bits."""

    snr_db: float
    symbols_sent: int
    symbol_errors: int
    ser: float


def awgn(signal: np.ndarray, snr_db: float, seed: int, stream: int = 0) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    Noise variance is mean|x|^2 / 10**(snr_db/10) per complex sample, split
    evenly between the real and imaginary parts.  Deterministic in
    (seed, stream); snr_db=inf is the no-noise mode, NaN and -inf raise
    ValueError, and so does an empty signal or one with NaN or inf samples.
    """
    simulate._check_snr(snr_db)
    signal = np.asarray(signal, dtype=np.complex128)
    power = _mean_power(signal.ravel(), "SNR")
    if np.isposinf(snr_db):
        return signal.copy()
    sigma2 = power / 10.0 ** (snr_db / 10.0)
    g = simulate.noise_rng(seed, stream).standard_normal((signal.size, 2))
    return signal + simulate._complex_noise(g, sigma2).reshape(signal.shape)


def measure_ser(ofdm: OfdmConfig, clip_cfg: ClipConfig | None, snr_db: float,
                n_symbols: int, seed: int, workers: int = 1) -> SerPoint:
    """Simulate the full chain and count constellation-symbol errors.

    Per OFDM symbol: random bits -> Gray map -> synthesize -> optional
    crest reduction -> AWGN -> analyze -> in-band extraction -> nearest-
    point demap.  Pure function of (configs, snr_db, n_symbols, seed);
    ``workers`` only changes the wall time.
    """
    errors = simulate.ser_errors(ofdm, clip_cfg, snr_db, n_symbols, seed, workers)
    sent = n_symbols * ofdm.n_subcarriers
    return SerPoint(float(snr_db), sent, errors, errors / sent)
