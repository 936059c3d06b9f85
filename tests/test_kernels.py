"""`peak_suppress` against its scalar reference, bit for bit, `nearest_labels`
against an all-M distance search and an exact per-axis oracle, and kernel
edge cases."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (SUPPORTED_ORDERS, WINDOW_NAMES, _kernels, constellation, crest,
                      demap_points, threshold_from_ratio)
from ofdmclip.modulation import labels_to_bits
from ofdmclip.windows import window


def peak_suppress_loop(x, mag, thresh, w):
    """Scalar reference for ``_kernels.peak_suppress``: one row at a time,
    one peak at a time, each window added whole in ascending sample order;
    a sample whose envelope b is 0 is left as it is.  Returns (y, number of
    peaks)."""
    n_rows, n = x.shape
    n_win = w.size
    half = (n_win - 1) // 2
    y = np.empty_like(x)
    peaks = 0
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
                peaks += 1
                depth = 1.0 - a / m
                lo = i - half
                for d in range(n_win):
                    idx = lo + d
                    if 0 <= idx < n:
                        b[idx] += depth * w[d]
            i = j + 1
        for idx in range(n):
            if b[idx] == 0.0:
                y[r, idx] = x[r, idx]
                continue
            env = b[idx] if b[idx] < 1.0 else 1.0
            y[r, idx] = x[r, idx] * (1.0 - env)
    return y, peaks


def bordered(mag, w):
    """``mag`` in the kernel's bordered layout: pad = max(1, min(half, n - 1))
    columns of -1 on both sides of each row."""
    pad = max(1, min(w.size // 2, mag.shape[1] - 1))
    return np.pad(mag, ((0, 0), (pad, pad)), constant_values=-1.0)


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


def case_rows_of_one(rng):
    # pad 1 with a window reaching 5 samples past it
    return batch(rng, rows=30, n=1, scale=2.0), np.full(30, 1.0), window("hann", 11)


def case_rows_of_two(rng):
    x = batch(rng, rows=30, n=2, scale=2.0)
    x[::5, 1] = x[::5, 0]  # a two-sample plateau
    return x, np.full(30, 1.0), window("hamming", 7)


def case_no_peak(rng):
    # nothing above any level, so the envelope is 0 everywhere and no sample
    # is scaled: these signed zeros keep their sign
    x = batch(rng, rows=8, n=64)
    x[::2, ::3] = complex(-0.0, -0.0)
    x[1::2, ::4] = complex(0.5, -0.0)
    return x, np.abs(x).max(axis=1) + 1.0, window("hann", 11)


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
    case_window_longer_than_row, case_rows_of_one, case_rows_of_two, case_no_peak,
    case_rect_1, case_flattop, case_long_plateaus,
    case_many_blocks,
], ids=lambda f: f.__name__[5:])
def test_peak_suppress_matches_scalar_loop(rng, make):
    x, thresh, w = make(rng)
    mag = np.abs(x)
    ref, peaks = peak_suppress_loop(x, mag, thresh, w)
    y = x.copy()
    assert _kernels.peak_suppress(y, bordered(mag, w), thresh, w) == peaks  # scales y in place
    assert np.array_equal(y, ref)
    assert y.tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), n=st.integers(1, 40),
       name=st.sampled_from(WINDOW_NAMES), half=st.integers(0, 30),
       cr_db=st.floats(-3.0, 6.0))
def test_peak_window_passes_keep_magnitudes(seed, rows, n, name, half, cr_db):
    # the clip loop's bordered buffer, filled once: after every pass its
    # interior is np.abs(x) bit for bit and its border -1, and the pass is
    # the scalar loop's on the rows it was given; windows longer than the
    # row and flattop, whose gains may exceed 1, included
    rng = np.random.default_rng(seed)
    x = batch(rng, rows=rows, n=n)
    x[:, 1::7] = complex(-0.0, -0.0)
    w = window(name, 2 * half + 1)
    mag = crest._abs_into(x, crest._border(x, w.size))
    pad = (mag.shape[1] - n) // 2
    thresh = threshold_from_ratio(x, cr_db)
    for _ in range(5):
        ref, peaks = peak_suppress_loop(x, np.abs(x), thresh, w)
        assert crest._peak_window(x, mag, thresh[:, None], w) == peaks
        assert x.tobytes() == ref.tobytes()
        assert mag[:, pad:pad + n].tobytes() == np.abs(x).tobytes()
        assert (mag[:, :pad] == -1.0).all() and (mag[:, pad + n:] == -1.0).all()


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


def exact_codes(values, levels):
    """Per value, the Gray code of the exactly nearest level (rational
    distances), ties to the lower code."""
    exact = [Fraction(level) for level in levels.tolist()]
    return np.array([min(range(len(exact)), key=lambda g: (abs(Fraction(x) - exact[g]), g))
                     for x in values.tolist()])


def oracle_values(m):
    """Every level and midpoint of either axis of order ``m`` and 0, the two
    floats either side of each, the least subnormals and +-1e17 ... +-1e300."""
    levels = np.unique(np.concatenate(constellation(m).axes))
    ties = np.concatenate([levels, (levels[1:] + levels[:-1]) / 2, [0.0]])
    near = [ties]
    for toward in (np.inf, -np.inf):
        x = ties
        for _ in range(2):
            near.append(x := np.nextafter(x, toward))
    far = 10.0 ** np.arange(17, 301)
    return np.unique(np.concatenate(near + [[5e-324, -5e-324], far, -far]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_nearest_labels_and_demap_points_match_exact_oracle(m):
    c = constellation(m)
    values = oracle_values(m)
    i_levels, q_levels = c.axes
    q_bits = q_levels.size.bit_length() - 1
    ref = (exact_codes(values, i_levels)[:, None] << q_bits) | exact_codes(values, q_levels)
    y = values[:, None] + 1j * values
    assert np.array_equal(_kernels.nearest_labels(y, *c.axes), ref.ravel())
    bits = labels_to_bits(ref.ravel(), c.bits_per_symbol)
    assert np.array_equal(demap_points(y.ravel(), m), bits)


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
    _kernels.peak_suppress(y, bordered(mag, w), thresh, w)
    assert np.all(np.abs(y) <= mag * (1 + 1e-12))
