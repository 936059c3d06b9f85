"""`peak_suppress` against its scalar reference, bit for bit, `nearest_labels`
against an all-M distance search, and kernel edge cases."""
import numpy as np
import pytest

from ofdmclip import SUPPORTED_ORDERS, _kernels, constellation
from ofdmclip.windows import window


def peak_suppress_loop(x, mag, thresh, w):
    """Scalar reference for ``_kernels.peak_suppress``: one row at a time,
    one peak at a time, each window added whole in ascending sample order."""
    n_rows, n = x.shape
    n_win = w.size
    half = (n_win - 1) // 2
    y = np.empty_like(x)
    for r in range(n_rows):
        a = thresh[r]
        b = np.zeros(n)
        i = 0
        while i < n:
            m = mag[r, i]
            if m <= a or (i > 0 and mag[r, i - 1] >= m):
                i += 1
                continue
            j = i
            while j + 1 < n and mag[r, j + 1] == m:
                j += 1
            if j == n - 1 or mag[r, j + 1] < m:
                depth = 1.0 - a / m
                lo = i - half
                for d in range(n_win):
                    idx = lo + d
                    if 0 <= idx < n:
                        b[idx] += depth * w[d]
            i = j + 1
        for idx in range(n):
            env = b[idx] if b[idx] < 1.0 else 1.0
            y[r, idx] = x[r, idx] * (1.0 - env)
    return y


def batch(rng, rows=20, n=256, scale=1.2):
    return scale * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))


def with_phases(rng, mag):
    return mag * np.exp(1j * rng.uniform(0.0, 2 * np.pi, mag.shape))


def on_axes(rng, mag):
    """Phases of 0, 90, 180 or 270 degrees, so np.abs gives ``mag`` exactly."""
    return mag * rng.choice(np.array([1, 1j, -1, -1j]), mag.shape)


def case_random_rows(rng):
    x = batch(rng, rows=50)
    return x, rng.uniform(0.8, 2.0, 50), window("hann", 11)


def case_quantized_plateaus(rng):
    q = rng.integers(0, 4, (300, 24)).astype(float)
    q[::3, :3] = 3.0   # plateau starting at sample 0
    q[1::3, -3:] = 3.0  # plateau reaching sample n-1
    return with_phases(rng, q), rng.uniform(0.5, 2.5, 300), window("hamming", 7)


def case_boundary_peaks(rng):
    m = np.ones((3, 16))
    m[0, 0] = m[0, -1] = 4.0
    m[1, :2] = m[1, -2:] = 4.0
    m[2, 0], m[2, 1], m[2, -1], m[2, -2] = 4.0, 3.0, 4.0, 3.0
    return with_phases(rng, m), np.full(3, 2.0), window("hann", 5)


def case_row_ends_below_next_start(rng):
    # rows 0 and 1 end on a peak and the next row starts higher (row 1) or
    # lower (row 2): a neighbour read across the row end would hide a peak
    m = np.ones((3, 8))
    m[0, -1], m[1, 0], m[1, -1], m[2, 0] = 3.0, 4.0, 4.0, 3.0
    return on_axes(rng, m), np.full(3, 2.0), window("hann", 5)


def case_equal_across_row_end(rng):
    # a row's last sample equals the next row's first: not a plateau
    m = np.ones((2, 8))
    m[0, -1] = m[1, 0] = 3.0
    return on_axes(rng, m), np.full(2, 2.0), window("hann", 5)


def case_window_longer_than_row(rng):
    return batch(rng, rows=40, n=4, scale=2.0), np.full(40, 1.0), window("hann", 11)


def case_rect_1(rng):
    return batch(rng), np.full(20, 1.3), window("rect", 1)


def case_flattop(rng):
    w = window("flattop", 31)
    assert (w < 0).any()  # 0 * w[d] < 0 gives -0.0 wherever there is no peak
    x = batch(rng)
    x[:, ::7] = 0.0
    return x, np.full(20, 1.3), w


def case_long_plateaus(rng):
    # plateaus of 3 to 6 samples in mid-row, followed by a lower, equal-then-
    # lower or higher sample, and reaching the last sample; every tenth row
    # is one plateau
    m = rng.uniform(0.0, 1.0, (60, 32))
    for r in range(60):
        length = 3 + r % 4
        start = 5 + r % 7
        m[r, start:start + length] = 3.0
        m[r, start + length] = (1.0, 4.0, 3.0)[r % 3]
        m[r, -length:] = 2.0 + r % 2
    m[::10] = 2.5
    return with_phases(rng, m), rng.uniform(0.5, 2.5, 60), window("hann", 5)


def case_many_blocks(rng):
    rows = 131
    return batch(rng, rows=rows), rng.uniform(1.0, 1.6, rows), window("kaiser", 9)


@pytest.mark.parametrize("make", [
    case_random_rows, case_quantized_plateaus, case_boundary_peaks,
    case_row_ends_below_next_start, case_equal_across_row_end,
    case_window_longer_than_row, case_rect_1, case_flattop, case_long_plateaus,
    case_many_blocks,
], ids=lambda f: f.__name__[5:])
def test_peak_suppress_matches_scalar_loop(rng, make):
    x, thresh, w = make(rng)
    mag = np.abs(x)
    ref = peak_suppress_loop(x, mag, thresh, w)
    y = x.copy()
    assert _kernels.peak_suppress(y, mag, thresh, w) is None  # scales y in place
    assert np.array_equal(y, ref)
    assert y.tobytes() == ref.tobytes()


def nearest_labels_joint(points, constellation):
    """Reference for ``_kernels.nearest_labels``: the squared distance to all
    M points, summed over both axes, and its first minimum."""
    points = points.ravel()
    out = np.empty(points.size, dtype=np.int64)
    cre = constellation.real[None, :]
    cim = constellation.imag[None, :]
    for lo in range(0, points.size, 8192):
        blk = points[lo:lo + 8192]
        d = (blk.real[:, None] - cre) ** 2 + (blk.imag[:, None] - cim) ** 2
        out[lo:lo + 8192] = d.argmin(axis=1)
    return out


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_nearest_labels_matches_joint_search_on_noisy_points(rng, m):
    c = constellation(m)
    n = 1_000_000
    y = c.points[rng.integers(0, m, n)] + 0.3 * (rng.standard_normal(n)
                                                 + 1j * rng.standard_normal(n))
    assert np.array_equal(_kernels.nearest_labels(y, *c.axes), nearest_labels_joint(y, c.points))


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_nearest_labels_on_midpoints_and_corners(m):
    # every level, every midpoint between neighbouring levels, and 0, of
    # either axis, on both axes: per-axis and 2-D ties
    c = constellation(m)
    levels = np.unique(np.concatenate(c.axes))
    values = np.unique(np.concatenate([levels, (levels[1:] + levels[:-1]) / 2, [0.0]]))
    y = (values[:, None] + 1j * values).ravel()
    got = _kernels.nearest_labels(y, *c.axes)
    ref = nearest_labels_joint(y, c.points)
    i_levels, q_levels = c.axes
    q_bits = q_levels.size.bit_length() - 1

    def axis_dist(labels):
        return ((y.real - i_levels[labels >> q_bits]) ** 2,
                (y.imag - q_levels[labels & (q_levels.size - 1)]) ** 2)

    (gi, gq), (ri, rq) = axis_dist(got), axis_dist(ref)
    # a mismatch only where the joint sum rounds two different per-axis
    # distances to a tie; the per-axis answer is then nearer on an axis
    bad = got != ref
    assert np.array_equal(gi[bad] + gq[bad], ri[bad] + rq[bad])
    assert ((gi[bad] <= ri[bad]) & (gq[bad] <= rq[bad])).all()
    assert ((gi[bad] < ri[bad]) | (gq[bad] < rq[bad])).all()


def test_nearest_labels_tie_prefers_lowest_index():
    i_levels, q_levels = np.array([1.0, -1.0]), np.array([0.0])
    assert _kernels.nearest_labels(np.array([0.0 + 0j]), i_levels, q_levels)[0] == 0
    # QPSK origin: equidistant from all four points
    assert _kernels.nearest_labels(np.array([0.0 + 0j]), *constellation(4).axes)[0] == 0
    # 8-QAM, midway between I codes 2 and 3 and between Q codes 0 and 1: the
    # joint float sums tie labels 4 and 6, but code 3 is strictly nearer on I
    c = constellation(8)
    y = np.array([-0.8164965809277259 + 0j])
    assert nearest_labels_joint(y, c.points)[0] == 4
    assert _kernels.nearest_labels(y, *c.axes)[0] == 6


def test_peak_suppress_gain_stays_in_unit_interval(rng):
    x = batch(rng, rows=10, scale=4.0)
    mag = np.abs(x)
    thresh = np.full(10, 0.5)
    w = window("hann", 11)
    y = x.copy()
    _kernels.peak_suppress(y, mag, thresh, w)
    assert np.all(np.abs(y) <= mag * (1 + 1e-12))
