"""Symmetric window functions used to shape clipping noise.

Supported kinds (CLI names): rect, hann, hamming, blackman, kaiser,
flattop.  Hann, Hamming, Blackman and Kaiser are numpy's ``np.hanning``,
``np.hamming``, ``np.blackman`` and ``np.kaiser``; flattop is its cosine
series, evaluated on sample offsets symmetric about the center.  Every
window satisfies w[n] == w[W-1-n] bit-exactly, and W=1 gives [1.0] for
every kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulation import _integral

WINDOW_NAMES = ("rect", "hann", "hamming", "blackman", "kaiser", "flattop")

DEFAULT_KAISER_BETA = 5.0

# flattop cosine-series coefficients, peak-normalized below
_FLATTOP_COEFFS = (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368)

_NUMPY_WINDOWS = {"hann": np.hanning, "hamming": np.hamming, "blackman": np.blackman}

_KAISER_MAX_BETA = 700.0


@dataclass(frozen=True)
class WindowKind:
    """A window selection; ``beta`` only affects the Kaiser window."""

    name: str
    beta: float = DEFAULT_KAISER_BETA

    def __post_init__(self):
        if self.name not in WINDOW_NAMES:
            raise ValueError(f"unknown window {self.name!r}; choose one of {WINDOW_NAMES}")
        # np.kaiser divides by np.i0(beta), which overflows near 713
        if not (math.isfinite(self.beta) and 0.0 <= self.beta < _KAISER_MAX_BETA):
            raise ValueError(f"kaiser beta must be in [0, {_KAISER_MAX_BETA:g}), got {self.beta}")


def as_window_kind(kind) -> WindowKind:
    if isinstance(kind, WindowKind):
        return kind
    return WindowKind(str(kind))


def window(kind, length: int) -> np.ndarray:
    """Coefficients of the selected window, length >= 1."""
    kind = as_window_kind(kind)
    length = _integral(length, "window length", 1)
    if kind.name == "rect" or length == 1:
        return np.ones(length)
    if kind.name == "kaiser":
        return np.kaiser(length, kind.beta)
    if kind.name in _NUMPY_WINDOWS:
        return _NUMPY_WINDOWS[kind.name](length)
    # the series a0 - a1 cos(2 pi k/(W-1)) + ... at k = (n + W - 1)/2: every
    # sign turns to +, and cos is even in the symmetric offsets n
    t = np.pi * np.arange(1 - length, length, 2) / (length - 1)
    w = sum(a * np.cos(j * t) for j, a in enumerate(_FLATTOP_COEFFS))
    return w / w.max()
