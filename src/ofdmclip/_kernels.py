"""Hot numeric kernels: peak-window suppression, nearest-point demapping and
per-row PAPR, as straight-line numpy over everything they are given.

The kernels do not block: their temporaries grow with their input.  The
Monte Carlo engine bounds memory by handing them one block of rows at a
time (see ``simulate``).  ``peak_suppress`` scales its input in place.

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
# The search works on flat indices into the (rows, n) magnitudes: only the
# samples above their row threshold are gathered, with their neighbours at
# index - 1 and + 1; a neighbour read across a row end is masked by the
# column (0 or n - 1), so no row sees the next one.
#
# The window offsets d run from W-1 down to 0, so every b[idx] receives its
# peaks in ascending peak index: the float sums equal those of a scalar loop
# that adds one whole window per peak, peak by peak.  For one d all targets
# are distinct, so a fancy-indexed += adds each term once.
# ---------------------------------------------------------------------------


def _peaks(m, a):
    """Flat indices of the peaks in the (rows, n) magnitudes ``m``, in
    ascending order.  Only samples above the row threshold are looked at;
    the rare rows where a candidate starts a plateau are searched whole for
    the plateau's end."""
    n = m.shape[1]
    flat = m.reshape(-1)
    last = flat.size - 1
    at = np.flatnonzero(m > a[:, None])
    col = at % n
    v = flat[at]
    rising = (col == 0) | (flat[at - 1] < v)
    at, col, v = at[rising], col[rising], v[rising]
    end = col.copy()  # last column of the plateau each candidate starts
    right = flat[np.minimum(at + 1, last)]  # the sample after that column
    plateau = np.flatnonzero((col < n - 1) & (right == v))
    if plateau.size:
        r, inv = np.unique(at[plateau] // n, return_inverse=True)
        sub = m[r]
        # the first j >= col with m[j + 1] != m[j], or the row's last sample
        change = np.ones(sub.shape, dtype=bool)
        np.not_equal(sub[:, 1:], sub[:, :-1], out=change[:, :-1])
        changes = np.flatnonzero(change)
        end[plateau] = changes[np.searchsorted(changes, inv * n + col[plateau])] - inv * n
        right[plateau] = flat[np.minimum(at[plateau] - col[plateau] + end[plateau] + 1, last)]
    keep = (end == n - 1) | (right < v)
    return at[keep]


def peak_suppress(x, mag, thresh, w) -> None:
    """Peak-window the rows ``x`` (rows, n) in place, given ``mag = np.abs(x)``,
    per-row thresholds ``thresh`` and window coefficients ``w`` (odd length)."""
    n = x.shape[1]
    if n == 0:  # the row padding below needs a sample
        return
    half = (w.size - 1) // 2
    peaks = _peaks(mag, thresh)
    rows, cols = np.divmod(peaks, n)
    depth = 1.0 - thresh[rows] / mag.reshape(-1)[peaks]
    # each row padded by `pad` on both sides so no shifted peak leaves its row
    pad = min(half, n - 1)
    b = np.zeros((x.shape[0], n + 2 * pad))
    flat = b.ravel()
    at = rows * (n + 2 * pad) + cols + pad
    for d in range(w.size - 1, -1, -1):
        s = d - half
        if abs(s) < n:
            flat[at + s] += depth * w[d]
    gain = b[:, pad:pad + n]
    np.minimum(gain, 1.0, out=gain)
    np.subtract(1.0, gain, out=gain)
    x *= gain


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
    p = np.square(x.real)
    p += np.square(x.imag)
    return 10.0 * np.log10(p.max(axis=-1) * x.shape[-1] / p.sum(axis=-1))
