"""Gray-coded constellation mapping for BPSK, QPSK, 8/16/64-QAM.

Bit convention: each constellation symbol carries log2(M) bits, most
significant bit first.  The integer formed by those bits is the point's
*label* and indexes ``Constellation.points`` directly.

Every constellation is a rectangular Gray grid scaled to unit average
symbol energy: ``_AXIS_BITS`` gives the (I, Q) bit split per order, the
label is ``(I Gray code << Q bits) | Q Gray code``, and on an axis of n
bits the b-th level from the top, ``(2**n - 1) - 2*b``, carries Gray code
``b ^ (b >> 1)``, so the all-zeros label is the upper-right corner.  BPSK
is the 2x1 grid (one I bit, no Q bit), 8-QAM the 4x2 grid.  The full
tables are written out in ``docs/constellations.md``.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels

# order -> (I bits, Q bits): the one statement of the label layout
_AXIS_BITS = {2: (1, 0), 4: (1, 1), 8: (2, 1), 16: (2, 2), 64: (3, 3)}
SUPPORTED_ORDERS = tuple(_AXIS_BITS)


@dataclass(frozen=True)
class Constellation:
    """A fixed constellation: ``points[label]`` is the complex symbol."""

    order: int
    points: np.ndarray
    bits_per_symbol: int

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(I level per I Gray code, Q level per Q Gray code), read-only views
        of ``points``."""
        n_q = 1 << _AXIS_BITS[self.order][1]
        return self.points.real[::n_q], self.points.imag[:n_q]


def _gray_axis_levels(n_bits: int) -> np.ndarray:
    """Amplitude per Gray code for a 2**n_bits-level PAM axis."""
    b = np.arange(1 << n_bits)
    levels = np.empty(b.size)
    levels[b ^ (b >> 1)] = (b.size - 1) - 2 * b
    return levels


def _build_points(m: int) -> np.ndarray:
    i_bits, q_bits = _AXIS_BITS[m]
    pts = (_gray_axis_levels(i_bits)[:, None] + 1j * _gray_axis_levels(q_bits)).ravel()
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: a bool, a complex number, an array
    or a string is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integral(value, name: str, low=None):
    """``value`` through operator.index; a bool, not integral or below ``low``
    raises ValueError."""
    try:
        if isinstance(value, bool):  # an int subclass: operator.index(True) is 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return index


def constellation(m: int) -> Constellation:
    """Return the fixed unit-energy constellation for order ``m``, any
    integral type.

    Raises ValueError for unsupported or non-integral orders.
    """
    order = _integral(m, "modulation order")
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported modulation order {m}; choose one of {SUPPORTED_ORDERS}")
    return _constellation(order)


@lru_cache(maxsize=None)
def _constellation(m: int) -> Constellation:
    pts = _build_points(m)
    pts.setflags(write=False)
    return Constellation(order=m, points=pts, bits_per_symbol=m.bit_length() - 1)


def bits_to_labels(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a flat sequence")
    if bits.size % bits_per_symbol:
        raise ValueError(
            f"bit count {bits.size} is not divisible by {bits_per_symbol}")
    # shift-or in uint8, which holds the at most 6 bits of every supported order
    columns = bits.reshape(-1, bits_per_symbol)
    labels = columns[:, 0].copy()
    for j in range(1, bits_per_symbol):
        labels <<= 1
        labels |= columns[:, j]
    return labels


def labels_to_bits(labels: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    labels = np.asarray(labels)
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def map_bits(bits, m: int) -> np.ndarray:
    """Map a bit sequence (MSB first per group) to constellation points.

    Bit values other than 0 and 1 raise ValueError.
    """
    const = constellation(m)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return const.points[bits_to_labels(bits, const.bits_per_symbol)]


def demap_points(received, m: int) -> np.ndarray:
    """Hard-decision demap: nearest constellation point, then its bit label.

    Each axis takes its exactly nearest level, ties to the lower Gray code,
    so every finite point gets its nearest label, ties to the lowest.  An
    argmin of the float sums ``dre**2 + dim**2`` over all points can round
    two different distances to a tie.  NaN or inf points raise ValueError.
    """
    const = constellation(m)
    pts = np.asarray(received, dtype=np.complex128)
    if not np.isfinite(pts).all():
        raise ValueError("received points must be finite (no NaN or inf)")
    labels = _kernels.nearest_labels(pts, *const.axes)
    return labels_to_bits(labels, const.bits_per_symbol)
