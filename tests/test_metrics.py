import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (OfdmConfig, ccdf_point_db, constellation,
                      default_threshold_grid, estimate_ccdf, papr_db,
                      papr_samples, synthesize)


def test_constant_envelope_is_zero_db():
    x = np.exp(1j * np.linspace(0, 5, 100))
    assert papr_db(x) == pytest.approx(0.0, abs=1e-12)


def test_all_ones_symbol_peaks_at_n():
    x = synthesize(np.ones(64, dtype=complex), 1)
    assert papr_db(x) == pytest.approx(10 * np.log10(64), abs=1e-9)


def test_papr_scale_invariant(rng):
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    for c in (0.01, 1.0, 37.5, -2.0, 1j):
        assert abs(papr_db(c * x) - papr_db(x)) < 1e-12


def test_papr_bounds(rng):
    labels = rng.integers(0, 4, (500, 64))
    x = synthesize(constellation(4).points[labels], 4)
    vals = papr_db(x)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 10 * np.log10(64 * 4) + 1e-12)


def test_papr_along_last_axis(rng):
    x = rng.standard_normal((3, 4, 32)) + 1j * rng.standard_normal((3, 4, 32))
    vals = papr_db(x)
    assert vals.shape == (3, 4)
    for i in range(3):
        assert np.array_equal(vals[i], papr_db(x[i]))
        for j in range(4):
            assert vals[i, j] == papr_db(x[i, j])


def test_papr_rejects_zero_signal():
    with pytest.raises(ValueError):
        papr_db(np.zeros(16, dtype=complex))
    with pytest.raises(ValueError):
        papr_db(np.ones((2, 3, 4)) * [[[1.0]], [[0.0]]])
    with pytest.raises(ValueError, match="scalar"):
        papr_db(2.0 + 1j)


def test_papr_rejects_overflowing_and_empty_rows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |x|^2 overflows to inf, so the row's PAPR would be inf/inf
        with pytest.raises(ValueError, match="NaN or inf"):
            papr_db(np.array([1e200, 1e200, 1.0]))
        for empty in (np.array([], dtype=complex), np.zeros((3, 0), dtype=complex)):
            with pytest.raises(ValueError, match="non-empty"):
                papr_db(empty)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_papr_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="NaN or inf"):
        papr_db([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="NaN or inf"):
        papr_db(np.array([[1.0, 2.0], [1.0, 1j * bad]]))


def test_ccdf_endpoints_and_monotonicity(rng):
    samples = rng.normal(8.0, 1.0, 5000)
    thresholds = np.linspace(samples.min() - 1, samples.max() + 1, 40)
    curve = estimate_ccdf(samples, thresholds)
    assert curve.exceed_prob[0] == 1.0
    assert curve.exceed_prob[-1] == 0.0
    assert (np.diff(curve.exceed_prob) <= 0).all()
    assert curve.n_samples == 5000


def test_ccdf_matches_counting_oracle(rng):
    samples = rng.normal(7.0, 2.0, 300)
    thresholds = np.sort(rng.uniform(2.0, 12.0, 15))
    curve = estimate_ccdf(samples, thresholds)
    brute = [np.sum(samples > t) / samples.size for t in thresholds]
    assert np.array_equal(curve.exceed_prob, brute)


def test_ccdf_validation(rng):
    with pytest.raises(ValueError):
        estimate_ccdf(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        estimate_ccdf(np.array([1.0]), np.array([]))
    with pytest.raises(ValueError):
        estimate_ccdf(np.array([1.0, 2.0]), np.array([3.0, 2.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_ccdf([1.0, bad, 5.0], [0.0, 4.0, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for thresholds in ([np.nan], [0.0, np.inf], [-np.inf, 4.0], [0.0, np.nan, 4.0]):
            with pytest.raises(ValueError, match="finite"):
                estimate_ccdf([1.0, 5.0], thresholds)


def test_default_grid():
    grid = default_threshold_grid()
    assert grid[0] == 4.0
    assert grid[-1] == 13.0
    assert np.allclose(np.diff(grid), 0.25)


def test_ccdf_point_is_upper_quantile():
    samples = np.arange(10000, dtype=float)
    assert ccdf_point_db(samples, 1e-3) == float(np.quantile(samples, 0.999))
    # numpy interpolates from the nearer end: from the lower one alone, these
    # are off in the last bit
    for pair, prob in (([0.1, 0.3], 0.1), ([0.1, 0.9], 0.2), ([0.1, 0.3], 1e-3)):
        assert ccdf_point_db(pair, prob) == float(np.quantile(pair, 1.0 - prob))
    with pytest.raises(ValueError):
        ccdf_point_db(samples, 0.0)
    with pytest.raises(ValueError):
        ccdf_point_db(np.array([]), 1e-3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ccdf_point_db([1.0, bad, 5.0], 0.5)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000),
       decimals=st.sampled_from([None, 0, 1]), shift=st.floats(-20.0, 20.0),
       prob=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.floats(0.0, 1e-6, exclude_min=True),
                      st.floats(1.0 - 1e-6, 1.0, exclude_max=True)))
def test_ccdf_point_equals_numpy_quantile(seed, n, decimals, shift, prob):
    # numpy's default linear quantile exactly, from one sort: rounding gives
    # repeated values, the shift negative ones
    x = np.random.default_rng(seed).standard_normal(n) * 3.0 + shift
    if decimals is not None:
        x = np.round(x, decimals)
    assert ccdf_point_db(x, prob) == float(np.quantile(x, 1.0 - prob))


def test_nyquist_ccdf_formula_exact_for_gaussian_bins(rng):
    # iid complex-Gaussian bins map to iid complex-Gaussian time samples
    # under the unitary transform, where P(max|x|^2 > g) = 1-(1-e^-g)^N is
    # exact with true-mean normalization; validates the CCDF estimator
    n_sym, n = 30_000, 64
    bins = (rng.standard_normal((n_sym, n)) + 1j * rng.standard_normal((n_sym, n))) / np.sqrt(2)
    x = synthesize(bins, 1)
    samples = 10 * np.log10((np.abs(x) ** 2).max(axis=1))
    thresholds = default_threshold_grid()
    gamma = 10 ** (thresholds / 10)
    analytic = 1 - (1 - np.exp(-gamma)) ** n
    curve = estimate_ccdf(samples, thresholds)
    se = np.sqrt(analytic * (1 - analytic) / n_sym)
    sel = analytic >= 1e-3
    assert np.all(np.abs(curve.exceed_prob - analytic)[sel] <= 3 * se[sel])


def test_modulation_order_does_not_degrade_papr():
    # 64-QAM mean PAPR within 0.1 dB of (not worse than) QPSK mean PAPR
    mean64 = papr_samples(OfdmConfig(64, 4, 64), None, 4000, seed=11).mean()
    mean4 = papr_samples(OfdmConfig(64, 4, 4), None, 4000, seed=11).mean()
    assert mean64 >= mean4 - 0.1
