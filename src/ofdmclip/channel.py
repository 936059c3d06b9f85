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


def _check_point(snr_db, hint: str = "") -> None:
    if np.ndim(snr_db) != 0:
        raise ValueError(f"snr_db must be one SNR point, got shape {np.shape(snr_db)}{hint}")


def awgn(signal: np.ndarray, snr_db: float, seed: int, stream: int = 0) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    Noise variance is mean|x|^2 / 10**(snr_db/10) per complex sample, split
    evenly between the real and imaginary parts.  The normals are the first
    2 * signal.size words of noise stream ``stream`` under ``seed`` (RNG
    contract v2, see ``simulate``), so the output is deterministic in
    (seed, stream).  snr_db=inf is the no-noise mode; NaN and -inf raise
    ValueError, and so do an SNR grid, an empty signal, one with NaN or inf
    samples, and a seed or stream outside [0, 2**64).
    """
    _check_point(snr_db)
    simulate._check_snr(snr_db)
    seed, stream = simulate._check_u64(seed, "seed"), simulate._check_u64(stream, "stream index")
    signal = np.asarray(signal, dtype=np.complex128)
    power = _mean_power(signal.ravel(), "SNR")
    if np.isposinf(snr_db):
        return signal.copy()
    z = simulate._normals(seed, stream, stream + 1, signal.size)
    return signal + (np.sqrt(power / 10.0 ** (snr_db / 10.0) / 2.0) * z).reshape(signal.shape)


def measure_ser(ofdm: OfdmConfig, clip_cfg: ClipConfig | None, snr_db: float,
                n_symbols: int, seed: int, workers: int = 1) -> SerPoint:
    """Simulate the full chain and count constellation-symbol errors.

    Per OFDM symbol: random bits -> Gray map -> synthesize -> optional
    crest reduction -> analyze -> in-band extraction -> AWGN on the in-band
    bins (the same noise per bin as AWGN before the unitary FFT) ->
    nearest-point decision, counted against the sent levels.  Pure function
    of (configs, snr_db, n_symbols, seed); ``workers`` only changes the wall
    time.  ``snr_db`` is one point; a grid raises ValueError before anything
    is simulated (``ser_errors`` takes grids).
    """
    _check_point(snr_db, "; ser_errors takes a grid")
    errors = simulate.ser_errors(ofdm, clip_cfg, snr_db, n_symbols, seed, workers)
    sent = n_symbols * ofdm.n_subcarriers
    return SerPoint(float(snr_db), sent, errors, errors / sent)
