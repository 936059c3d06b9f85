import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import WINDOW_NAMES, WindowKind, window

# reference values from 40-digit mpmath.besseli(0, x)
I0_REFERENCE = {
    0.5: 1.0634833707413235192631844154453565293,
    1.0: 1.2660658777520083355982446252147175376,
    2.0: 2.2795853023360672674372044408115333533,
    5.0: 27.239871823604446894544232075884419282,
    10.0: 2815.7166284662544714698111534265900931,
    50.0: 2.932553783849336326654675079456853858e20,
    699.0: 5.631084539969660918487598921434566363e301,
}

SYMMETRY_LENGTHS = (1, 2, 3, 4, 5, 11, 64, 101, 256, 1024, 1025)
NONNEGATIVE = ("rect", "hann", "hamming", "kaiser")


@pytest.mark.parametrize("length", (3, 11, 101))
@pytest.mark.parametrize("beta,i0", sorted(I0_REFERENCE.items()))
def test_kaiser_edge_is_reciprocal_i0(beta, i0, length):
    # the edge sample is I0(0) / I0(beta); beta=699 is the guard's edge
    edge = window(WindowKind("kaiser", beta), length)[0]
    assert edge * i0 == pytest.approx(1.0, rel=0, abs=1e-12)


def test_hanning_w5():
    assert np.allclose(window("hann", 5), [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)


def test_hamming_endpoints():
    w = window("hamming", 5)
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[-1] == pytest.approx(0.08, abs=1e-12)


def test_kaiser_beta_zero_is_rectangular():
    assert np.array_equal(window(WindowKind("kaiser", beta=0.0), 17), np.ones(17))


def test_blackman_center_and_edges():
    w = window("blackman", 7)
    assert w[3] == pytest.approx(1.0, abs=1e-12)
    assert w[0] == pytest.approx(0.42 - 0.5 + 0.08, abs=1e-12)


@pytest.mark.parametrize("name", WINDOW_NAMES)
@pytest.mark.parametrize("length", SYMMETRY_LENGTHS)
def test_symmetry_bit_exact(name, length):
    w = window(name, length)
    assert w.shape == (length,)
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("name", WINDOW_NAMES)
def test_length_one_is_unit(name):
    assert np.array_equal(window(name, 1), [1.0])


@pytest.mark.parametrize("name", NONNEGATIVE)
@pytest.mark.parametrize("length", (3, 11, 64, 101))
def test_nonnegative_windows_in_unit_range(name, length):
    w = window(name, length)
    assert w.min() >= 0.0
    assert w.max() <= 1.0


@pytest.mark.parametrize("length", (11, 101, 1025))
def test_odd_center_is_one(length):
    for name in WINDOW_NAMES:
        assert window(name, length)[(length - 1) // 2] == pytest.approx(1.0, abs=1e-12)


def test_blackman_edges_touch_zero():
    # 0.42 - 0.5 + 0.08 cancels to ~0 with a one-ulp negative residue
    w = window("blackman", 64)
    assert w.min() >= -1e-15
    assert w.max() <= 1.0


def test_flattop_has_small_negative_lobes():
    # the flattopwin coefficient set dips to about -0.0704
    w = window("flattop", 101)
    assert w.min() < 0.0
    assert w.min() >= -0.08
    assert w.min() == pytest.approx(-0.070434535, abs=1e-6)
    assert w[50] == 1.0  # peak-normalized center


def test_kaiser_monotone_to_center():
    w = window("kaiser", 41)
    half = w[:21]
    assert (np.diff(half) >= 0).all()


def test_kaiser_edge_decreases_with_beta():
    edges = [window(WindowKind("kaiser", beta=b), 33)[0] for b in range(1, 11)]
    assert (np.diff(edges) < 0).all()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(WINDOW_NAMES), length=st.integers(1, 300))
def test_symmetry_property(name, length):
    w = window(name, length)
    assert np.array_equal(w, w[::-1])


def test_invalid_lengths_rejected():
    for bad in (0, -1, -100, 2.5):
        with pytest.raises(ValueError):
            window("hann", bad)


def test_window_kind_validation():
    with pytest.raises(ValueError):
        WindowKind("tukey")
    with pytest.raises(ValueError):
        WindowKind("kaiser", beta=-1.0)
    with pytest.raises(ValueError):
        WindowKind("kaiser", beta=float("inf"))
    # np.kaiser divides by np.i0(beta), which overflows near 713; a beta
    # that is not a real number, or is a bool, fails the same way
    for beta in (700.0, 1e9, 10 ** 400, "5", None, True, np.True_, 5 + 0j, np.array(5.0)):
        with pytest.raises(ValueError, match="beta"):
            WindowKind("kaiser", beta=beta)
    assert np.isfinite(window(WindowKind("kaiser", beta=699.0), 11)).all()
    assert WindowKind("kaiser").beta == 5.0
    for beta in (5, np.int64(5), np.float32(5.0)):
        assert type(WindowKind("kaiser", beta).beta) is float
        assert WindowKind("kaiser", beta) == WindowKind("kaiser")
