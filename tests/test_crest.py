import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (WINDOW_NAMES, ClipConfig, OfdmConfig, analyze, clip,
                      constellation, embed_spectrum, oob_filter, papr_db, papr_samples,
                      peak_window_suppress, rcf, synthesize, threshold_from_ratio, window)
from ofdmclip import crest, simulate
from ofdmclip.crest import _clip, _work_rows

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


def clip_oracle(x, a):
    """Per-sample reference for ``clip``: a sample above its row's level a is
    scaled by a/|x|, and the scale is stepped down one float at a time until
    np.abs puts the sample at or under a.  Returns (y, number of steps)."""
    levels = np.broadcast_to(np.asarray(a, dtype=float), x.shape[:-1])
    y = x.copy()
    steps = 0
    for idx in np.ndindex(x.shape):
        level, mag = levels[idx[:-1]], np.abs(x[idx])
        if mag > level:
            scale = level / mag
            w = x[idx] * scale
            while np.abs(w) > level:
                scale = np.nextafter(scale, 0.0)
                w = x[idx] * scale
                steps += 1
            y[idx] = w
    return y, steps


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
        # the private step, in place on the boundary check's copy
        inplace, mag, level = _work_rows(x, a)
        assert _clip(inplace, mag, level) is inplace
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


@pytest.mark.parametrize("strategy, name", [("none", "hann")]
                         + [("pw", name) for name in WINDOW_NAMES])
def test_clip_loop_exit_equals_every_step(rng, monkeypatch, strategy, name):
    # none runs one step and pw leaves the clip loop after a step that
    # windowed nothing; the rows are byte-equal to K steps run
    # unconditionally, each pw step on the magnitudes the previous one left.
    # The flat rows have no peak and (-0, -0) samples, which a peak window of
    # nothing leaves as they are.
    flat = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (3, OFDM.n_samples)))
    flat[:, ::9] = complex(-0.0, -0.0)
    blocks = (synthesize(random_symbols(rng, 40, OFDM), OFDM.oversample), flat)
    steps = []

    def counted(*args, _step=crest._crest_step):
        steps.append(1)
        return _step(*args)

    asked = 0
    for x0 in blocks:
        before = x0.tobytes()
        for cr_db in range(-3, 10):
            cfg = ClipConfig(cr_db, 8, strategy, name, 9)
            level = threshold_from_ratio(x0, cr_db)[:, None]
            x = x0.copy()
            mag = (crest._abs_into(x, crest._border(x, cfg.window_len))
                   if strategy == "pw" else None)
            every = [x0.tobytes()]
            for _ in range(8):
                crest._crest_step(x, mag, level, cfg, OFDM)
                every.append(x.tobytes())
            with monkeypatch.context() as m:
                m.setattr(crest, "_crest_step", counted)
                for k in range(9):
                    got = crest._rcf_rows(x0, ClipConfig(cr_db, k, strategy, name, 9), OFDM)
                    assert got.tobytes() == every[k], (cr_db, k)
                    asked += k
        assert x0.tobytes() == before
    assert 0 < len(steps) < asked  # the loop did leave early


def test_pw_block_takes_one_dense_abs_per_config(monkeypatch):
    # the bordered |x| is filled once per block and crest config; every peak
    # window after that rewrites only the magnitudes of the samples it scales
    fills, steps = [], []

    def abs_into(x, mag, _abs_into=crest._abs_into):
        fills.append(1)
        return _abs_into(x, mag)

    def step(*args, _step=crest._crest_step):
        steps.append(1)
        return _step(*args)

    monkeypatch.setattr(crest, "_abs_into", abs_into)
    monkeypatch.setattr(crest, "_crest_step", step)
    cfgs = [ClipConfig(3.0, 5, "pw", name) for name in ("hann", "kaiser", "flattop")]
    rows = simulate._BLOCK_SAMPLES // OFDM.n_samples
    papr_samples(OFDM, cfgs, rows, seed=1)  # one block
    assert len(fills) == len(cfgs)
    assert len(steps) == 5 * len(cfgs)


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
                         ("window_len", 11.0), ("window_len", None)):
        with pytest.raises(ValueError, match=field):
            ClipConfig(**{field: value})
    assert ClipConfig(iterations=np.int64(2), window_len=np.int32(5)).iterations == 2
    assert ClipConfig(window="kaiser").window.name == "kaiser"


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
