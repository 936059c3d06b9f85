import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmclip import (WINDOW_NAMES, ClipConfig, OfdmConfig, analyze, clip,
                      constellation, embed_spectrum, oob_filter, papr_db, papr_samples,
                      peak_window_suppress, rcf, synthesize, threshold_from_ratio, window)
from ofdmclip import _kernels, crest, simulate
from ofdmclip.cli import main
from ofdmclip.crest import _clip, _work_rows
from ofdmclip.transform import MAX_ROW_SAMPLES
from oracles import clip_oracle

NON_FINITE = (np.nan, np.inf, -np.inf)


def random_signal(rng, n=256, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def random_symbols(rng, count, ofdm):
    labels = rng.integers(0, ofdm.mod_order, (count, ofdm.n_subcarriers))
    return constellation(ofdm.mod_order).points[labels]


def with_sample(x, index, value):
    x = np.array(x, dtype=complex)
    x[index] = value
    return x


# --- _border -----------------------------------------------------------------

@pytest.mark.parametrize("n, window_len, pad", [
    (16, 1, 1), (16, 3, 1), (16, 11, 5), (16, 31, 15), (16, 255, 15), (2, 11, 1), (1, 11, 1),
], ids=["w1", "pad1", "half", "half-is-n-1", "n-1", "n2", "n1"])
def test_border_is_minus_one_around_the_magnitudes(monkeypatch, n, window_len, pad):
    # pad = max(1, min(window_len // 2, n - 1)); np.empty is NaN-filled here,
    # so a column _border leaves unwritten shows
    x = random_signal(np.random.default_rng(n * window_len), 3 * n).reshape(3, n)
    monkeypatch.setattr(np, "empty", lambda shape, *args, **kw: np.full(shape, np.nan, *args, **kw))
    mag, inner = crest._border(x, window_len)
    assert mag.shape == (3, n + 2 * pad) and np.shares_memory(mag, inner)
    assert inner.tobytes() == mag[:, pad:pad + n].tobytes() == np.abs(x).tobytes()
    assert (mag[:, :pad] == -1.0).all() and (mag[:, pad + n:] == -1.0).all()


# --- threshold_from_ratio ---------------------------------------------------

def test_threshold_unit_rms():
    sig = np.ones(100, dtype=complex)
    assert threshold_from_ratio(sig, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert threshold_from_ratio(sig, 6.0206) == pytest.approx(2.0, abs=1e-4)


def test_threshold_scales_with_signal(rng):
    sig = random_signal(rng)
    a1 = threshold_from_ratio(sig, 3.0)
    a2 = threshold_from_ratio(3.7 * sig, 3.0)
    assert a2 == pytest.approx(3.7 * a1, rel=1e-12)


def test_threshold_rejects_zero_signal(rng):
    with pytest.raises(ValueError):
        threshold_from_ratio(np.zeros(8, dtype=complex), 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for empty in (np.array([], dtype=complex), np.zeros((3, 0), dtype=complex)):
            with pytest.raises(ValueError, match="empty"):
                threshold_from_ratio(empty, 3.0)
        for scalar in (1.0 + 0j, np.complex128(2.0)):
            with pytest.raises(ValueError, match="got a scalar"):
                threshold_from_ratio(scalar, 3.0)
    with pytest.raises(ValueError):
        threshold_from_ratio(with_sample(random_signal(rng, 16).reshape(2, 8), 1, 0.0), 3.0)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            threshold_from_ratio(with_sample(random_signal(rng, 16), 3, bad), 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in NON_FINITE + (1e6, -1e6):
            with pytest.raises(ValueError, match="clip_ratio_db"):
                threshold_from_ratio(random_signal(rng, 16), ratio)


def test_threshold_rejects_an_underflowing_level():
    # rms * gain can round to 0 for a tiny signal; the clip loop, which runs
    # no level check of its own, must never see that level
    tiny = 1e-160 * np.ones((2, 8), dtype=complex)
    with pytest.raises(ValueError, match="clipping level must be positive, got 0.0"):
        threshold_from_ratio(tiny, -6000.0)
    symbol = 1e-160 * constellation(8).points[np.arange(64) % 8]
    with pytest.raises(ValueError, match="clipping level must be positive, got 0.0"):
        rcf(symbol, ClipConfig(-6000.0, 2, "cf"), OfdmConfig(64, 4, 8))


# --- clip --------------------------------------------------------------------

def test_clip_scales_onto_circle():
    x = np.array([2.0 * np.exp(1j * np.pi / 4)])
    y = clip(x, 1.0)
    assert abs(y[0] - np.exp(1j * np.pi / 4)) < 1e-12


def test_clip_passes_small_samples_bit_exact(rng):
    x = random_signal(rng, 1000, scale=0.1)
    assert np.array_equal(clip(x, 1.0), x)


def test_clip_cap_and_phase(rng):
    x = random_signal(rng, 50_000, scale=2.0)
    a = 1.0
    y = clip(x, a)
    assert np.all(np.abs(y) <= a)
    nz = x != 0
    dphi = np.angle(y[nz]) - np.angle(x[nz])
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(dphi)) < 1e-12
    small = np.abs(x) <= a
    assert np.array_equal(y[small], x[small])


def test_public_steps_refuse_a_magnitude_that_overflows(rng):
    # both parts are finite, but |x| overflows to inf, which a clip would
    # scale to 0 and a peak window attenuate to 0
    x = with_sample(random_signal(rng, 16), 3, complex(1e308, 1.7e308))
    assert np.isfinite(x).all() and not np.isfinite(np.abs(x)).all()
    with pytest.raises(ValueError, match="finite"):
        clip(x, 1.0)
    with pytest.raises(ValueError, match="finite"):
        peak_window_suppress(x, 1.0, "hann", 11)


def test_clip_idempotent_bit_exact(rng):
    x = random_signal(rng, 50_000, scale=3.0)
    y = clip(x, 0.8)
    assert np.array_equal(clip(y, 0.8), y)


def test_clip_rejects_nonpositive_level(rng):
    x = random_signal(rng, 16)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            clip(x, bad)
    with pytest.raises(ValueError):
        clip(x.reshape(2, 8), np.array([1.0, 0.0]))
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            clip(with_sample(x, 3, bad), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got a scalar"):
            clip(1.0 + 0j, 0.5)


def test_clip_matches_per_sample_oracle(rng):
    edge = random_signal(rng, 3 * 64, scale=1.5).reshape(3, 64)
    # no sample above the level, every sample above it, and a mixed row
    edge_levels = np.array([2.0 * np.abs(edge[0]).max(), 0.5 * np.abs(edge[1]).min(), 1.0])
    cases = {
        "1d": (random_signal(rng, 512, scale=1.5), 1.0),
        "2d": (random_signal(rng, 6 * 256, scale=1.5).reshape(6, 256)
               * rng.uniform(0.5, 2.0, (6, 1)), rng.uniform(0.5, 2.0, 6)),
        "3d": (random_signal(rng, 3 * 4 * 64, scale=1.5).reshape(3, 4, 64),
               rng.uniform(0.5, 2.0, (3, 4))),
        "edge rows": (edge, edge_levels),
    }
    steps = 0
    for name, (x, a) in cases.items():
        ref, fired = clip_oracle(x, a)
        steps += fired
        assert clip(x, a).tobytes() == ref.tobytes(), name
        # a view of every other entry along the first axis, as input
        strided = np.empty((2 * x.shape[0],) + x.shape[1:], complex)[::2]
        strided[...] = x
        assert clip(strided, a).tobytes() == ref.tobytes(), name
        # the private step, in place on the boundary check's copy, counts the
        # samples above their row's level
        inplace, level = _work_rows(x, a)
        assert _clip(inplace, level) == np.count_nonzero(np.abs(x) > np.asarray(a)[..., None])
        assert inplace.tobytes() == ref.tobytes(), name
    assert steps > 0  # the nudge was exercised


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(0.1, 4.0), rows=st.integers(1, 5),
       name=st.sampled_from(WINDOW_NAMES))
def test_clip_properties(seed, a, rows, name):
    # a batch of 256-sample rows at unequal scales, with per-row levels
    rng = np.random.default_rng(seed)
    x = random_signal(rng, rows * 256, scale=1.5).reshape(rows, 256)
    x *= rng.uniform(0.5, 2.0, (rows, 1))
    levels = a * rng.uniform(0.5, 2.0, rows)
    y = clip(x, levels)
    assert np.all(np.abs(y) <= levels[:, None])
    assert np.array_equal(clip(y, levels), y)
    assert clip(x, a).tobytes() == clip(x, np.full(rows, a)).tobytes()
    # each row of a batch call is byte-equal to the 1-D call on that row
    thresh = threshold_from_ratio(x, 3.0)
    pw = peak_window_suppress(x, levels, name, 11)
    oob = oob_filter(x, 64, 4)
    for r in range(rows):
        assert clip(x[r], levels[r]).tobytes() == y[r].tobytes()
        assert peak_window_suppress(x[r], levels[r], name, 11).tobytes() == pw[r].tobytes()
        assert oob_filter(x[r], 64, 4).tobytes() == oob[r].tobytes()
        assert np.float64(threshold_from_ratio(x[r], 3.0)).tobytes() == thresh[r].tobytes()


# --- oob_filter ---------------------------------------------------------------

def test_oob_filter_fixes_band_limited_input(rng):
    ofdm = OfdmConfig(64, 4, 4)
    x = synthesize(random_symbols(rng, 1, ofdm)[0], ofdm.oversample)
    y = oob_filter(x, ofdm.n_subcarriers, ofdm.oversample)
    assert np.max(np.abs(y - x)) < 1e-10


def test_oob_filter_never_gains_energy(rng):
    x = random_signal(rng, 256)
    y = oob_filter(x, 64, 4)
    assert np.sum(np.abs(y) ** 2) <= np.sum(np.abs(x) ** 2) * (1 + 1e-12)


def test_oob_filter_idempotent(rng):
    x = random_signal(rng, 256)
    y = oob_filter(x, 64, 4)
    z = oob_filter(y, 64, 4)
    assert np.max(np.abs(z - y)) < 1e-10


def test_oob_filter_linear(rng):
    x = random_signal(rng, 256)
    y = random_signal(rng, 256)
    a, b = 1.5 - 0.5j, -2.0 + 1j
    lhs = oob_filter(a * x + b * y, 64, 4)
    rhs = a * oob_filter(x, 64, 4) + b * oob_filter(y, 64, 4)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_oob_filter_zeroes_out_of_band(rng):
    x = random_signal(rng, 256)
    spectrum = analyze(oob_filter(x, 64, 4))
    assert np.max(np.abs(spectrum[32:256 - 32])) < 1e-12


def test_oob_filter_size_mismatch(rng):
    with pytest.raises(ValueError):
        oob_filter(np.ones(100, dtype=complex), 64, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got a scalar"):
            oob_filter(1.0 + 0j, 1, 1)
    x = random_signal(rng, 3 * 256).reshape(3, 256)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            oob_filter(with_sample(x, (1, 17), bad), 64, 4)
    # N and L themselves, not only their product: L=16 is no oversample choice
    for n, oversample, name in ((64, 4.0, "oversample"), (64.0, 4, "n_subcarriers"),
                                (16, 16, "oversample")):
        with pytest.raises(ValueError, match=name):
            oob_filter(x, n, oversample)


# --- peak_window_suppress ------------------------------------------------------

def isolated_peak_signal(n=64, peak_idx=20, peak_mag=2.0, base=0.3):
    x = base * np.exp(1j * np.linspace(0, 3, n))
    x[peak_idx] = peak_mag * np.exp(1j * 0.7)
    return x


def test_peak_window_noop_below_threshold(rng):
    x = random_signal(rng, 128, scale=0.2)
    y = peak_window_suppress(x, 5.0, "hann", 11)
    assert np.array_equal(y, x)


@pytest.mark.parametrize("name", ("rect", "hann", "hamming", "blackman", "kaiser", "flattop"))
def test_isolated_peak_lands_exactly_on_threshold(name):
    x = isolated_peak_signal()
    y = peak_window_suppress(x, 1.0, name, 11)
    assert abs(np.abs(y[20]) - 1.0) < 1e-12
    assert np.angle(y[20]) == pytest.approx(0.7, abs=1e-12)


def test_width_one_rect_equals_clip_at_peaks(rng):
    x = random_signal(rng, 256, scale=1.5)
    a = 0.9
    y = peak_window_suppress(x, a, "rect", 1)
    mag = np.abs(x)
    clipped = clip(x, a)
    for i in range(1, 255):
        if mag[i] > a and mag[i] > mag[i - 1] and mag[i] > mag[i + 1]:
            assert abs(y[i] - clipped[i]) < 1e-12


@pytest.mark.parametrize("name", ("rect", "hann", "hamming", "blackman", "kaiser"))
def test_nonnegative_windows_never_amplify(rng, name):
    ofdm = OfdmConfig(64, 4, 8)
    x = synthesize(random_symbols(rng, 200, ofdm), ofdm.oversample)
    y = peak_window_suppress(x, threshold_from_ratio(x, 3.0), name, 11)
    assert np.all(np.abs(y) <= np.abs(x) * (1 + 1e-12) + 1e-15)


def test_plateau_uses_first_sample():
    x = np.array([0.1, 2.0, 2.0, 0.1], dtype=complex)
    y = peak_window_suppress(x, 1.0, "rect", 1)
    assert abs(np.abs(y[1]) - 1.0) < 1e-12  # first plateau sample suppressed
    assert y[2] == x[2]  # rest of the plateau untouched at W=1


def test_boundary_sample_counts_as_peak():
    x = np.array([2.0, 0.1, 0.1, 0.1], dtype=complex)
    y = peak_window_suppress(x, 1.0, "rect", 1)
    assert abs(np.abs(y[0]) - 1.0) < 1e-12
    x = np.array([0.1, 0.1, 0.1, 2.0], dtype=complex)
    y = peak_window_suppress(x, 1.0, "rect", 1)
    assert abs(np.abs(y[3]) - 1.0) < 1e-12


def test_overlapping_depths_cap_at_one():
    # two adjacent deep peaks: summed envelope would exceed 1 without the cap
    x = np.full(32, 0.01 + 0j)
    x[10] = 100.0
    x[12] = 100.0
    y = peak_window_suppress(x, 1.0, "hann", 11)
    assert np.all(np.abs(y) <= np.abs(x))  # gain stays in [0, 1]


def test_peak_window_validation(rng):
    x = random_signal(rng, 64)
    with pytest.raises(ValueError):
        peak_window_suppress(x, -1.0, "hann", 11)
    with pytest.raises(ValueError):
        peak_window_suppress(x, 1.0, "hann", 10)
    with pytest.raises(ValueError, match="window length"):
        peak_window_suppress(x, 1.0, "hann", 11.7)
    with pytest.raises(ValueError, match="clipping level must be positive, got 0.0"):
        peak_window_suppress(x.reshape(4, 16), [1.0, 0.0, 2.0, -1.0], "hann", 11)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            peak_window_suppress(with_sample(x, 2, bad), 0.5, "hann", 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got a scalar"):
            peak_window_suppress(1.0 + 0j, 0.5, "hann", 11)


def test_empty_signal_passes_clip_and_peak_window():
    empty = np.array([], dtype=complex)
    for y in (clip(empty, 1.0), peak_window_suppress(empty, 1.0, "hann", 11)):
        assert y.shape == (0,) and y.dtype == np.complex128


# --- rcf ----------------------------------------------------------------------

OFDM = OfdmConfig(64, 4, 8)


def one_symbol(rng):
    return random_symbols(rng, 1, OFDM)[0]


def test_rcf_zero_iterations_is_passthrough(rng):
    sym = one_symbol(rng)
    cfg = ClipConfig(iterations=0)
    y, report = rcf(sym, cfg, OFDM)
    assert np.array_equal(y, synthesize(sym, OFDM.oversample))
    assert report.papr_before_db == report.papr_after_db
    assert report.clipped_sample_count == 0
    assert report.per_iteration_papr_db.shape == (1,)


def test_rcf_hard_clip_caps_magnitude(rng):
    sym = one_symbol(rng)
    cfg = ClipConfig(iterations=1, strategy="none")
    y, report = rcf(sym, cfg, OFDM)
    a = threshold_from_ratio(synthesize(sym, OFDM.oversample), cfg.clip_ratio_db)
    assert np.all(np.abs(y) <= a)
    assert report.per_iteration_papr_db.shape == (1,)
    assert report.clipped_sample_count > 0


def test_rcf_cf_leaves_no_out_of_band_power(rng):
    sym = one_symbol(rng)
    y, _ = rcf(sym, ClipConfig(iterations=3, strategy="cf"), OFDM)
    spectrum = analyze(y)
    total = np.sum(np.abs(spectrum) ** 2)
    oob = np.sum(np.abs(spectrum[32:256 - 32]) ** 2)
    assert oob <= 1e-12 * total


def test_rcf_report_tracks_iterations(rng):
    sym = one_symbol(rng)
    y, report = rcf(sym, ClipConfig(iterations=5, strategy="cf"), OFDM)
    assert report.per_iteration_papr_db.shape == (5,)
    assert report.papr_after_db == report.per_iteration_papr_db[-1]
    assert report.papr_after_db < report.papr_before_db
    assert report.papr_after_db == pytest.approx(papr_db(y), abs=1e-9)


def test_filtering_causes_peak_regrowth(rng):
    # after one clip+filter pass some samples exceed A again (CR = 3 dB)
    found = False
    for _ in range(50):
        sym = one_symbol(rng)
        x = synthesize(sym, OFDM.oversample)
        a = threshold_from_ratio(x, 3.0)
        y = oob_filter(clip(x, a), OFDM.n_subcarriers, OFDM.oversample)
        if np.any(np.abs(y) > a):
            found = True
            break
    assert found


def test_rcf_iteration_trend(rng):
    # more clip+filter rounds push mean PAPR down (small-sample version)
    symbols = random_symbols(rng, 400, OFDM)
    x0 = synthesize(symbols, OFDM.oversample)

    def mean_papr(k):
        if k == 0:
            return papr_db(x0).mean()
        vals = [rcf(s, ClipConfig(iterations=k, strategy="cf"), OFDM)[1].papr_after_db
                for s in symbols]
        return np.mean(vals)

    p0, p1, p5 = mean_papr(0), mean_papr(1), mean_papr(5)
    assert p0 - p1 > 0.3
    assert p1 - p5 > 0.3


def public_pass(x, a, cfg):
    """One pass of ``cfg``'s clip loop through the public steps, at level ``a``."""
    if cfg.strategy == "pw":
        return peak_window_suppress(x, a, cfg.window, cfg.window_len)
    y = clip(x, a)
    return oob_filter(y, OFDM.n_subcarriers, OFDM.oversample) if cfg.strategy == "cf" else y


def count_passes(monkeypatch, strategy):
    """A list that gets one entry per pass the clip loop runs for ``strategy``:
    one per ``_kernels.peak_suppress`` call for ``pw``, one per clip otherwise."""
    passes = []
    module, name = (_kernels, "peak_suppress") if strategy == "pw" else (crest, "_clip")

    def counted(*args, _core=getattr(module, name)):
        passes.append(1)
        return _core(*args)

    monkeypatch.setattr(module, name, counted)
    return passes


@pytest.mark.parametrize("strategy, name", [("none", "hann"), ("cf", "hann")]
                         + [("pw", name) for name in WINDOW_NAMES])
def test_clip_loop_exit_equals_every_step(rng, monkeypatch, strategy, name):
    # none runs one pass and pw leaves the clip loop after a pass that
    # windowed nothing; the rows are byte-equal to K public steps run
    # unconditionally at the level of the unclipped rows.  The flat rows have
    # no peak and (-0, -0) samples, which a peak window of nothing leaves as
    # they are.
    flat = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (3, OFDM.n_samples)))
    flat[:, ::9] = complex(-0.0, -0.0)
    blocks = (synthesize(random_symbols(rng, 40, OFDM), OFDM.oversample), flat)
    asked = ran = 0
    for x0 in blocks:
        before = x0.tobytes()
        for cr_db in range(-3, 10):
            a = threshold_from_ratio(x0, cr_db)
            every = [x0]
            for _ in range(8):
                every.append(public_pass(every[-1], a, ClipConfig(cr_db, 8, strategy, name, 9)))
            with monkeypatch.context() as m:
                passes = count_passes(m, strategy)
                for k in range(9):  # the loop works in the rows it is given: a copy
                    cfg = ClipConfig(cr_db, k, strategy, name, 9)
                    got = x0.copy()
                    list(crest._clip_loop(got, cfg, OFDM, {}))
                    assert got.tobytes() == every[k].tobytes(), (cr_db, k)
                    asked += k
            ran += len(passes)
        assert x0.tobytes() == before
    if strategy == "cf":
        assert ran == asked
    else:
        assert 0 < ran < asked  # the loop did leave early


def test_pw_block_takes_one_dense_abs_per_config(monkeypatch):
    # the bordered |x| is filled once per block and crest config; every peak
    # window after that rewrites only the magnitudes of the samples it scales
    fills = []

    def border(x, window_len, _border=crest._border):
        fills.append(1)
        return _border(x, window_len)

    monkeypatch.setattr(crest, "_border", border)
    passes = count_passes(monkeypatch, "pw")
    cfgs = [ClipConfig(3.0, 5, "pw", name) for name in ("hann", "kaiser", "flattop")]
    rows = simulate._BLOCK_SAMPLES // OFDM.n_samples
    papr_samples(OFDM, cfgs, rows, seed=1)  # one block
    assert len(fills) == len(cfgs)
    assert len(passes) == 5 * len(cfgs)


@pytest.mark.parametrize("strategy, name", [("none", "hann"), ("cf", "hann"), ("pw", "hann"),
                                            ("pw", "flattop")])
def test_rcf_report_equals_public_steps(rng, monkeypatch, strategy, name):
    # K public passes at the level of the unclipped signal, each counting the
    # samples above it first: rcf's report and signal are the same, though
    # its loop skips the passes after a none clip or a pw pass with no peak
    asked = ran = 0
    for symbol in random_symbols(rng, 20, OFDM):
        for cr_db in (0.0, 3.0, 6.0):
            cfg = ClipConfig(cr_db, 6, strategy, name, 11)
            x = synthesize(symbol, OFDM.oversample)
            a = threshold_from_ratio(x, cr_db)
            count, papr = 0, []
            for _ in range(cfg.iterations):
                count += int((np.abs(x) > a).sum())
                x = public_pass(x, a, cfg)
                papr.append(papr_db(x))
            with monkeypatch.context() as m:
                passes = count_passes(m, strategy)
                y, report = rcf(symbol, cfg, OFDM)
            asked += cfg.iterations
            ran += len(passes)
            assert y.tobytes() == x.tobytes()
            assert report.clipped_sample_count == count
            assert report.per_iteration_papr_db.tobytes() == np.array(papr).tobytes()
            assert report.papr_after_db == papr[-1]
    if strategy == "cf":
        assert ran == asked
    else:
        assert 0 < ran < asked  # the loop did leave early


def loop_counts(x0, cfg, ofdm):
    """The counts ``crest._clip_loop`` yields for the rows ``x0``, which it
    works in, each checked against the samples above A in this test's own
    copy of the rows before that pass."""
    a = threshold_from_ratio(x0, cfg.clip_ratio_db)[:, None]
    before, counts = x0.copy(), []
    for above in crest._clip_loop(x0, cfg, ofdm, {}):
        assert type(above) is int  # the loop yields no rows: they are x0
        assert above == np.count_nonzero(np.abs(before) > a)
        counts.append(above)
        before = x0.copy()
    if cfg.strategy == "pw" and len(counts) < cfg.iterations:
        assert not (np.abs(before) > a).any()  # pw left the loop with nothing above A
    return counts


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(("none", "cf", "pw")),
       name=st.sampled_from(WINDOW_NAMES), half=st.integers(0, 30),
       rows=st.integers(1, 5), n=st.integers(1, 40), cr_db=st.floats(-3.0, 9.0),
       iterations=st.integers(0, 6), ofdm=st.sampled_from([OfdmConfig(2, 1), OfdmConfig(4, 2),
                                                           OfdmConfig(8, 4)]))
# a rect window longer than the symbol erases it at CR -1 dB
@example(seed=23, strategy="pw", name="rect", half=7, rows=1, n=1, cr_db=-1.0, iterations=1,
         ofdm=OfdmConfig(4, 2))
@example(seed=0, strategy="pw", name="rect", half=24, rows=1, n=1, cr_db=-1.0, iterations=1,
         ofdm=OfdmConfig(8, 4))
def test_clip_loop_counts_the_samples_above_a(seed, strategy, name, half, rows, n, cr_db,
                                              iterations, ofdm):
    # each pass's count comes from its core, on the |x| it decides on, and
    # rcf's clipped_sample_count sums them; windows longer than the row and
    # flattop, whose gains may exceed 1, included.  cf's OOB filter takes
    # rows of N * L samples.  The loop works in the rows it is given, so the
    # random rows go in as a copy, and the synthesized row ends as the
    # signal rcf returns.
    rng = np.random.default_rng(seed)
    cfg = ClipConfig(cr_db, iterations, strategy, name, 2 * half + 1)
    n = ofdm.n_samples if strategy == "cf" else n
    x0 = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    x0[:, 1::7] = complex(-0.0, -0.0)
    loop_counts(x0.copy(), cfg, ofdm)
    symbol = rng.standard_normal(ofdm.n_subcarriers) + 1j * rng.standard_normal(ofdm.n_subcarriers)
    x = synthesize(symbol, ofdm.oversample).reshape(1, -1)
    counts = loop_counts(x, cfg, ofdm)
    if not x.any(axis=-1).all():  # a pass erased the symbol: it has no PAPR
        with pytest.raises(ValueError, match="PAPR must be finite"):
            rcf(symbol, cfg, ofdm)
    else:
        got, report = rcf(symbol, cfg, ofdm)
        assert got.tobytes() == x[0].tobytes()
        assert report.clipped_sample_count == sum(counts)


def test_rcf_refuses_wrong_config_types(rng):
    sym = one_symbol(rng)
    for cfg, ofdm in ((None, OFDM), ("cf", OFDM), (ClipConfig(), None), (ClipConfig(), (64, 4, 8))):
        with pytest.raises(ValueError, match="ClipConfig" if ofdm is OFDM else "OfdmConfig"):
            rcf(sym, cfg, ofdm)


def test_rcf_pw_strategy_reduces_papr(rng):
    sym = one_symbol(rng)
    cfg = ClipConfig(iterations=5, strategy="pw")
    y, report = rcf(sym, cfg, OFDM)
    assert report.papr_after_db < report.papr_before_db


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rcf_rejects_non_finite_bin(rng, bad):
    symbol = one_symbol(rng)
    symbol[5] = bad
    with pytest.raises(ValueError, match="finite"):
        rcf(symbol, ClipConfig(), OFDM)


def test_rcf_rejects_all_zero_symbol():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for iterations in (0, 2):
            with pytest.raises(ValueError, match="all-zero"):
                rcf(np.zeros(OFDM.n_subcarriers, dtype=complex), ClipConfig(iterations=iterations),
                    OFDM)


def test_rcf_rejects_symbol_erased_by_peak_window(rng):
    # a rect window of 255 samples on N*L = 256 can zero a whole row
    cfg = ClipConfig(3.0, 5, "pw", "rect", 255)
    erased = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for symbol in random_symbols(rng, 20, OFDM):
            try:
                _, report = rcf(symbol, cfg, OFDM)
            except ValueError as exc:
                assert "all-zero" in str(exc)
                erased += 1
            else:
                assert np.isfinite(report.per_iteration_papr_db).all()
    assert erased > 0


def test_rcf_rejects_wrong_symbol_length(rng):
    with pytest.raises(ValueError):
        rcf(np.ones(32, dtype=complex), ClipConfig(), OFDM)


def test_window_longer_than_any_row_is_refused(rng, monkeypatch, tmp_path):
    # a peak window reaches at most 2 * n - 1 samples of a row, so a window
    # longer than 2 * MAX_ROW_SAMPLES + 1 is refused before any coefficient
    # is computed
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(crest, "window", no_window)
    cap = 2 * MAX_ROW_SAMPLES + 1
    assert ClipConfig(strategy="pw", window_len=cap).window_len == cap
    for length in (cap + 2, np.int64(cap + 2), 10**9 + 1):
        with pytest.raises(ValueError, match=f"window_len must be odd, >= 1 and at most {cap}"):
            ClipConfig(strategy="pw", window_len=length)
        with pytest.raises(ValueError, match="window length"):
            peak_window_suppress(random_signal(rng, 64), 1.0, "hann", length)
    for command in ("ccdf", "window-sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--window-len", str(cap + 2), "--symbols", "10",
                  "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2
    assert not (tmp_path / "w.csv").exists()


def test_clip_config_validation():
    with pytest.raises(ValueError):
        ClipConfig(iterations=-1)
    with pytest.raises(ValueError):
        ClipConfig(strategy="slm")
    with pytest.raises(ValueError):
        ClipConfig(window_len=4)
    with pytest.raises(ValueError):
        ClipConfig(clip_ratio_db=float("nan"))
    # a ratio whose level gain 10**(dB/20) overflows or underflows to 0
    for ratio in (1e6, -1e6, np.float64(1e6)):
        with pytest.raises(ValueError, match="clip_ratio_db"):
            ClipConfig(clip_ratio_db=ratio)
    for field, value in (("iterations", 2.5), ("iterations", 2.0), ("iterations", "2"),
                         ("window_len", 11.0), ("window_len", None),
                         ("clip_ratio_db", "3"), ("clip_ratio_db", None)):
        with pytest.raises(ValueError, match=field):
            ClipConfig(**{field: value})
    assert ClipConfig(iterations=np.int64(2), window_len=np.int32(5)).iterations == 2
    assert ClipConfig(window="kaiser").window.name == "kaiser"


def test_clip_config_ratio_is_a_checked_float():
    # a bool, a complex number or an array is not a clip ratio; a config keeps
    # a Python float, so it hashes and keys the levels a block shares
    for ratio in (True, np.True_, 3 + 0j, np.complex128(3), np.array(3.0), np.array([3.0]),
                  [3.0]):
        with pytest.raises(ValueError, match="clip_ratio_db"):
            ClipConfig(clip_ratio_db=ratio)
        with pytest.raises(ValueError, match="clip_ratio_db"):
            threshold_from_ratio(np.ones(8, dtype=complex), ratio)
    for ratio in (3, np.int64(3), np.float32(3.0), np.float64(3.0)):
        cfg = ClipConfig(clip_ratio_db=ratio)
        assert type(cfg.clip_ratio_db) is float and cfg == ClipConfig(3.0)
        assert hash(cfg) == hash(ClipConfig(3.0))
    # a float32 ratio gives the float64 gain of its value, not a float32 one
    assert type(crest._clip_gain(np.float32(3.0))) is float
    assert crest._clip_gain(np.float32(3.0)) == 10.0 ** (3.0 / 20.0)
    with pytest.raises(ValueError, match="clip_ratio_db"):
        ClipConfig(clip_ratio_db=10 ** 400)  # past the float range


# --- memory layout ---------------------------------------------------------------

STEPS = {
    "clip": lambda x: clip(x, 0.9),
    "oob_filter": lambda x: oob_filter(x, OFDM.n_subcarriers, OFDM.oversample),
    "peak_window_suppress": lambda x: peak_window_suppress(x, 0.9, "hann", 11),
    "analyze": analyze,
    "synthesize": lambda x: synthesize(x, 4),
    "embed_spectrum": lambda x: embed_spectrum(x, 4),
}
LAYOUTS = {
    "1d": lambda x: x[0, 0],
    "2d": lambda x: x[0],
    "3d": lambda x: x,
    "strided": lambda x: x.reshape(20, 256)[::2],  # every other row
    "fortran": lambda x: np.asfortranarray(x[0]),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("step", STEPS)
def test_steps_take_any_layout_and_leave_it_alone(rng, step, layout):
    # a step makes its own C-ordered work copy: a strided or Fortran-ordered
    # input gives the contiguous input's result, and no input is written to
    f = STEPS[step]
    x = LAYOUTS[layout](random_signal(rng, 4 * 5 * 256, scale=1.5).reshape(4, 5, 256))
    before = x.copy()
    y = f(x)
    assert y.tobytes() == f(np.ascontiguousarray(x)).tobytes()
    assert not np.shares_memory(y, x)
    assert x.tobytes() == before.tobytes()
