"""Symmetric window functions used to shape clipping noise.

Supported kinds (CLI names): rect, hann, hamming, blackman, kaiser,
flattop.  All windows are symmetric; coefficients are evaluated on the
first half and mirrored so w[n] == w[W-1-n] holds bit-exactly.  W=1 gives
[1.0] for every kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WINDOW_NAMES = ("rect", "hann", "hamming", "blackman", "kaiser", "flattop")

DEFAULT_KAISER_BETA = 5.0

# flattop cosine-series coefficients (alternating signs), peak-normalized below
_FLATTOP_COEFFS = (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368)

_BESSEL_MAX_ARG = 700.0


@dataclass(frozen=True)
class WindowKind:
    """A window selection; ``beta`` only affects the Kaiser window."""

    name: str
    beta: float = DEFAULT_KAISER_BETA

    def __post_init__(self):
        if self.name not in WINDOW_NAMES:
            raise ValueError(f"unknown window {self.name!r}; choose one of {WINDOW_NAMES}")
        # bessel_i0's domain; a Kaiser window evaluates it up to beta
        if not (math.isfinite(self.beta) and 0.0 <= self.beta < _BESSEL_MAX_ARG):
            raise ValueError(f"kaiser beta must be in [0, {_BESSEL_MAX_ARG:g}), got {self.beta}")


def as_window_kind(kind) -> WindowKind:
    if isinstance(kind, WindowKind):
        return kind
    return WindowKind(str(kind))


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series summed to machine precision; |x| must be below 700 to
    stay clear of double overflow.
    """
    x = float(x)
    if not abs(x) < _BESSEL_MAX_ARG:
        raise ValueError(f"bessel_i0 argument out of range (|x| < {_BESSEL_MAX_ARG:g}): {x}")
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    k = 1
    while term > total * 1e-17:
        term *= q / (k * k)
        total += term
        k += 1
    return total


def _mirror(half: np.ndarray, length: int) -> np.ndarray:
    out = np.empty(length)
    out[:half.size] = half
    out[length - half.size:] = half[::-1]
    return out


def window(kind, length: int) -> np.ndarray:
    """Coefficients of the selected window, length >= 1."""
    kind = as_window_kind(kind)
    length = int(length)
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if kind.name == "rect" or length == 1:
        return np.ones(length)

    half_len = (length + 1) // 2
    n = np.arange(half_len)
    z = 2.0 * np.pi * n / (length - 1)

    if kind.name == "hann":
        half = 0.5 * (1.0 - np.cos(z))
    elif kind.name == "hamming":
        half = 0.54 - 0.46 * np.cos(z)
    elif kind.name == "blackman":
        half = 0.42 - 0.5 * np.cos(z) + 0.08 * np.cos(2.0 * z)
    elif kind.name == "kaiser":
        t = 2.0 * n / (length - 1) - 1.0
        denom = bessel_i0(kind.beta)
        half = np.array([bessel_i0(kind.beta * math.sqrt(max(0.0, 1.0 - ti * ti)))
                         for ti in t]) / denom
    else:  # flattop
        a = _FLATTOP_COEFFS
        half = (a[0] - a[1] * np.cos(z) + a[2] * np.cos(2.0 * z)
                - a[3] * np.cos(3.0 * z) + a[4] * np.cos(4.0 * z))
        half = half / half.max()

    return _mirror(half, length)
