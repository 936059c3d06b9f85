"""Hot numeric kernels: peak-window suppression, nearest-point demapping and
per-row PAPR, as straight-line numpy over everything they are given.

The kernels do not block: their temporaries grow with their input.  The
Monte Carlo engine bounds memory by handing them one block of rows at a
time (see ``simulate``).

Magnitude masks are always computed by the *caller* with ``np.abs`` and
passed in, so the same magnitudes decide clipping, peak detection and the
over-threshold counts.
"""
from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# peak-window suppression
#
# For each row: find the local maxima of |x| above the row threshold
# (strictly greater than the left neighbour, or at sample 0; on a plateau
# only its first sample, and only if the sample after the plateau is lower
# or the plateau reaches the row end), and add depth * w[d] at sample
# peak - half + d for each peak with depth 1 - a/|x|.  The envelope b is
# capped at 1 and the gain 1 - min(b, 1) scales every sample.
#
# The window offsets d run from W-1 down to 0, so every b[idx] receives its
# peaks in ascending peak index: the float sums equal those of a scalar loop
# that adds one whole window per peak, peak by peak.  For one d all targets
# are distinct, so a fancy-indexed += adds each term once.
# ---------------------------------------------------------------------------


def _peaks(m, a):
    """(rows, cols) of the peaks in the magnitudes ``m``."""
    n = m.shape[1]
    cand = m > a[:, None]
    cand[:, 1:] &= m[:, 1:] > m[:, :-1]
    # Key of a plateau's last sample: 2 * index + (next sample higher).  A
    # reversed running minimum hands that key to every sample of the plateau.
    key = np.full(m.shape, 2 * n)
    np.copyto(key[:, :-1], 2 * np.arange(n - 1) + (m[:, 1:] >= m[:, :-1]),
              where=m[:, 1:] != m[:, :-1])
    key[:, -1] = 2 * (n - 1)
    key = np.minimum.accumulate(key[:, ::-1], axis=1)[:, ::-1]
    return np.nonzero(cand & ((key & 1) == 0))


def peak_suppress(x, mag, thresh, w):
    """Peak-window ``x`` (rows, n) given ``mag = np.abs(x)``, per-row
    thresholds ``thresh`` and window coefficients ``w`` (odd length)."""
    n = x.shape[1]
    if n == 0:  # _peaks needs a last sample
        return np.empty_like(x)
    half = (w.size - 1) // 2
    rows, cols = _peaks(mag, thresh)
    depth = 1.0 - thresh[rows] / mag[rows, cols]
    # each row padded by `pad` on both sides so no shifted peak leaves its row
    pad = min(half, n - 1)
    b = np.zeros((x.shape[0], n + 2 * pad))
    flat = b.ravel()
    at = rows * (n + 2 * pad) + cols + pad
    for d in range(w.size - 1, -1, -1):
        s = d - half
        if abs(s) < n:
            flat[at + s] += depth * w[d]
    return x * (1.0 - np.minimum(b[:, pad:pad + n], 1.0))


# ---------------------------------------------------------------------------
# nearest-constellation-point demapping on a rectangular Gray grid
#
# ``i_levels[g]`` / ``q_levels[g]`` is the axis level of Gray code g, and the
# label is (I code << Q bits) | Q code, so the nearest point is the nearest
# level on each axis.  Squared distances per axis; argmin returns the first
# minimum, the lower Gray code, so equidistant ties go to the lowest label.
# ---------------------------------------------------------------------------

def nearest_labels(points, i_levels, q_levels):
    points = points.ravel()
    q_bits = q_levels.size.bit_length() - 1
    gi = ((points.real[:, None] - i_levels) ** 2).argmin(axis=1)
    gq = ((points.imag[:, None] - q_levels) ** 2).argmin(axis=1)
    return (gi << q_bits) | gq


# ---------------------------------------------------------------------------
# per-row PAPR in dB
# ---------------------------------------------------------------------------

def papr_db_rows(x):
    p = x.real ** 2 + x.imag ** 2
    return 10.0 * np.log10(p.max(axis=-1) * x.shape[-1] / p.sum(axis=-1))
