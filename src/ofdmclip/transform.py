"""Unitary OFDM synthesis/analysis transforms with center zero-padding.

Spectrum layout: a length-N symbol occupies the N "in-band" bins of the
length-N*L oversampled spectrum — bins 0 .. N/2-1 (non-negative
frequencies) stay at the bottom and bins N/2 .. N-1 (negative frequencies)
move to the top; the N*(L-1) middle bins are the out-of-band region.

Both directions use the unitary 1/sqrt(size) scaling, so energy is
preserved exactly (Parseval) and ``analyze`` inverts ``synthesize``.
All functions accept a single vector or a batch with symbols on the last
axis.  ``embed_spectrum``, ``synthesize`` and ``analyze`` write their result
into ``out=`` when given; the FFTs then run in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .modulation import _integral, constellation

_OVERSAMPLE_CHOICES = (1, 2, 4, 8)
# Most time samples per OFDM symbol, N * oversample.  A block holds at least
# one row, 16 MiB per complex array at this cap, where a serial run peaks
# near 100 MiB; a longer row is refused before it can exhaust memory.
MAX_ROW_SAMPLES = 2 ** 20


def _check_length(n, what: str) -> None:
    if _integral(n, what) < 2 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {n}")


def _row_length(array: np.ndarray, what: str) -> int:
    """Length of the last axis; a 0-D array raises ValueError."""
    if array.ndim == 0:
        raise ValueError(f"{what} must have at least one axis, got a scalar")
    return array.shape[-1]


def _check_oversample(oversample) -> None:
    if _integral(oversample, "oversample") not in _OVERSAMPLE_CHOICES:
        raise ValueError(f"oversample must be one of {_OVERSAMPLE_CHOICES}, got {oversample}")


@dataclass(frozen=True)
class OfdmConfig:
    """Static OFDM dimensions: subcarrier count, oversampling, modulation.
    A row of more than ``MAX_ROW_SAMPLES`` samples raises ValueError."""

    n_subcarriers: int = 64
    oversample: int = 4
    mod_order: int = 8

    def __post_init__(self):
        _check_length(self.n_subcarriers, "n_subcarriers")
        _check_oversample(self.oversample)
        constellation(self.mod_order)  # ValueError for an unsupported order
        if self.n_samples > MAX_ROW_SAMPLES:
            raise ValueError(f"n_subcarriers * oversample must be at most {MAX_ROW_SAMPLES}, "
                             f"got {self.n_samples}")

    @property
    def n_samples(self) -> int:
        return self.n_subcarriers * self.oversample


def embed_spectrum(bins: np.ndarray, oversample: int, *, out=None) -> np.ndarray:
    """Place N symbol bins into the in-band slots of an N*oversample spectrum,
    written to ``out`` if given (a complex128 array of the spectrum's shape)."""
    bins = np.asarray(bins, dtype=np.complex128)
    n = _row_length(bins, "bins")
    _check_length(n, "symbol length")
    _check_oversample(oversample)
    total = n * oversample
    out = _kernels.out_rows(out, bins.shape[:-1] + (total,))
    out[..., :n // 2] = bins[..., :n // 2]
    out[..., total - n // 2:] = bins[..., n // 2:]
    out[..., n // 2:total - n // 2] = 0.0
    return out


def extract_inband(spectrum: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Inverse of ``embed_spectrum``: pull the N in-band bins back out."""
    spectrum = np.asarray(spectrum)
    total = _row_length(spectrum, "spectrum")
    n = n_subcarriers
    _check_length(n, "n_subcarriers")
    if total % n:
        raise ValueError(f"spectrum length {total} does not oversample {n} subcarriers")
    _check_oversample(total // n)
    return np.concatenate(
        [spectrum[..., :n // 2], spectrum[..., total - n // 2:]], axis=-1)


def synthesize(symbol: np.ndarray, oversample: int = 1, *, out=None) -> np.ndarray:
    """Time-domain OFDM signal for one frequency-domain symbol.

    Returns N*oversample complex samples with the same total energy as the
    input bins, written to ``out`` if given (a complex128 array of that
    shape, which may be the input itself when oversample is 1).
    """
    spectrum = embed_spectrum(symbol, oversample, out=out)
    return np.fft.ifft(spectrum, norm="ortho", axis=-1, out=spectrum)


def analyze(signal: np.ndarray, *, out=None) -> np.ndarray:
    """Forward transform back to the (oversampled) spectrum, written to
    ``out`` if given (a complex128 array of the signal's shape, or the
    signal itself)."""
    signal = np.asarray(signal, dtype=np.complex128)
    _check_length(_row_length(signal, "signal"), "signal length")
    out = _kernels.out_rows(out, signal.shape)
    return np.fft.fft(signal, norm="ortho", axis=-1, out=out)
