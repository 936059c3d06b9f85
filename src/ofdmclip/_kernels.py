"""Hot numeric kernels: peak-window suppression, nearest-point demapping and
per-row PAPR, as straight-line numpy over everything they are given.

The kernels do not block: their temporaries grow with their input.  The
Monte Carlo engine bounds memory by handing them one block of rows at a
time (see ``simulate``).  ``peak_suppress`` scales its input in place.

The caller passes the magnitudes in, as the interior of a bordered buffer
(rows, n + 2 * pad) whose pad border columns hold -1: the row ends.
``crest`` keeps one such buffer per crest config and block and writes |x|
into it once; ``peak_suppress`` rewrites the magnitudes of the samples it
scales, so the interior stays |x| from one clip-loop iteration to the next.
It returns the number of samples its peak search found above the threshold,
the count ``crest.rcf`` reports for the pass, so the clip loop's stop rule
and its report read the one decision.  The first pass's search may be handed
in: a block's configs share it (see ``crest._clip_loop``).
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# peak-window suppression
#
# For each row: find the local maxima of |x| above the row threshold
# (strictly greater than the left neighbour, or at sample 0; on a plateau
# only its first sample, and only if the sample after the plateau is lower
# or the plateau reaches the row end), and add depth * w[d] at sample
# peak - half + d for each peak with depth 1 - a/|x|.  The envelope b is
# capped at 1 and the gain 1 - min(b, 1) scales the samples where b != 0;
# the others keep their exact bits, signed zeros included.
#
# The search works on flat indices into the bordered magnitudes: only the
# samples above their row threshold are gathered, with their neighbours at
# index - 1 and + 1.  Every threshold is > 0, so a -1 border sample is never
# a candidate, is lower than any candidate and ends every plateau: a row end
# reads as a lower neighbour, and no row sees the next one.
#
# The envelope shares the bordered layout (pad >= min(half, n - 1) keeps
# every shifted peak inside its row's span), so one np.bincount adds every
# term.  Its input runs over the window offsets d from W-1 down to 0, then
# over the peaks in ascending order: every bin receives its peaks in
# ascending peak index, and the float sums equal those of a scalar loop that
# adds one whole window per peak, peak by peak.  With the border columns of
# b cleared, its non-zero terms are the samples to scale: only they are
# gathered, scaled, written back and given a new magnitude.  A sample at
# bordered flat index i of row r sits at flat index i - pad * (2 * r + 1) in
# x; the scatter keeps both index arrays.
# ---------------------------------------------------------------------------


def _peaks(m, a):
    """(flat indices of the peaks in the bordered magnitudes ``m``, in
    ascending order; the number of samples above their row threshold).  Only
    those samples are looked at; the rare candidates that start a plateau
    are followed to its end."""
    flat = m.reshape(-1)
    above = np.flatnonzero(m > a[:, None])
    v = flat[above]
    rising = flat[above - 1] < v
    at, v, above = above[rising], v[rising], above.size  # frees the index array here
    right = flat[at + 1]  # the sample after the plateau each candidate starts
    plateau = np.flatnonzero(right == v)
    if plateau.size:
        # the first j >= at with m[j + 1] != m[j]: a border at the latest
        changes = np.flatnonzero(flat[1:] != flat[:-1])
        right[plateau] = flat[changes[np.searchsorted(changes, at[plateau])] + 1]
    return at[right < v], above


def peak_suppress(x, mag, thresh, w, found=None) -> int:
    """Peak-window the C-contiguous rows ``x`` (rows, n) in place, given
    their magnitudes as the interior of ``mag`` (rows, n + 2 * pad), whose
    border columns hold -1 and pad >= max(1, min(half, n - 1)), per-row
    thresholds ``thresh`` > 0 and window coefficients ``w`` (odd length).
    Rewrites the magnitudes of the samples it scales, so the interior of
    ``mag`` stays |x|.  Returns the number of samples above their row's
    threshold before the call, 0 exactly when there is no peak: a row with a
    sample above it always has one, its leftmost maximum.  ``found``, when
    given, is ``_peaks(mag, thresh)``, taken before and not taken again."""
    n = x.shape[1]
    width = mag.shape[1]
    pad = (width - n) // 2
    half = (w.size - 1) // 2
    reach = min(half, pad)  # no shift past it lands inside the row
    peaks, above = _peaks(mag, thresh) if found is None else found
    if not peaks.size:
        return 0
    depth = 1.0 - thresh[peaks // width] / mag.reshape(-1)[peaks]
    shift = np.arange(reach, -reach - 1, -1)[:, None]  # d - half, d descending
    b = np.bincount((peaks + shift).ravel(), (depth * w[half + shift]).ravel(),
                    minlength=mag.size).reshape(mag.shape)
    b[:, :pad] = 0.0
    b[:, pad + n:] = 0.0
    at = np.flatnonzero(b != 0.0)  # a bool mask: flatnonzero on floats is far slower
    gain = 1.0 - np.minimum(b.reshape(-1)[at], 1.0)
    del b
    in_x = at - (at // width * 2 + 1) * pad
    y = x.reshape(-1)[in_x]
    y *= gain
    x.reshape(-1)[in_x] = y
    mag.reshape(-1)[at] = np.abs(y, out=gain)
    return above


# ---------------------------------------------------------------------------
# nearest-constellation-point demapping on a rectangular Gray grid
#
# ``i_levels[g]`` / ``q_levels[g]`` is the axis level of Gray code g, and the
# label is (I code << Q bits) | Q code, so the nearest point is the nearest
# level on each axis.  The decision bound between neighbouring levels a < b
# is their rounded midpoint m, or the float below it when a + b - 2m (its
# sign exact through math.fsum) is negative, or 0 with b's Gray code the
# lower: each finite value gets its exactly nearest level, ties to the lower
# Gray code, and so its nearest label, ties to the lowest.
# ---------------------------------------------------------------------------

def decision_bounds(levels):
    """(Gray codes in ascending level order, the bound between each pair of
    neighbours): x takes the k-th lowest level iff bounds[k - 1] < x <= bounds[k]."""
    codes = np.argsort(levels)
    bounds = (levels[codes[:-1]] + levels[codes[1:]]) / 2
    for k, (lo, hi) in enumerate(zip(codes[:-1], codes[1:])):
        side = math.fsum((levels[lo], levels[hi], -2 * bounds[k]))
        if side < 0 or side == 0 and lo > hi:
            bounds[k] = np.nextafter(bounds[k], -np.inf)
    return codes, bounds


def nearest_labels(points, i_levels, q_levels):
    points = points.ravel()
    (ci, bi), (cq, bq) = decision_bounds(i_levels), decision_bounds(q_levels)
    q_bits = q_levels.size.bit_length() - 1
    return (ci[np.searchsorted(bi, points.real)] << q_bits) | cq[np.searchsorted(bq, points.imag)]


# ---------------------------------------------------------------------------
# per-row PAPR in dB
# ---------------------------------------------------------------------------

def papr_db_rows(x):
    """10*log10(max / mean) of re**2 + im**2 along the last axis, the im**2
    added a chunk of rows (8192 samples) at a time."""
    n = x.shape[-1]
    re, im = x.real.reshape(-1, n), x.imag.reshape(-1, n)
    p = np.square(re)
    for k in range(0, len(p), step := max(1, 8192 // n)):
        p[k:k + step] += np.square(im[k:k + step])
    return (10.0 * np.log10(p.max(axis=-1) * n / p.sum(axis=-1))).reshape(x.shape[:-1])
