"""Deterministic seeding and parallel-schedule independence."""
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (SUPPORTED_ORDERS, WINDOW_NAMES, ClipConfig, OfdmConfig, WindowKind,
                      constellation, papr_samples, ser_errors, window)
from ofdmclip import _fork, _kernels, crest, simulate
from ofdmclip.cli import SWEEP_WINDOWS
from ofdmclip.modulation import bits_to_labels
from oracles import reference_bits, reference_papr_db, reference_ser_errors

SRC = Path(__file__).resolve().parent.parent / "src"
OFDM = OfdmConfig(64, 2, 16)
# below, near and above the waterfall, plus the no-noise point
GRID = np.array([2.0, 7.5, np.inf, 12.0])
STRATEGIES = ("none", "cf", "pw")


def drawn_labels(ofdm, seed, lo, hi):
    """Symbols lo..hi's labels as a run draws them: their bit words
    (``simulate._words``), unpacked and labelled by ``simulate._labels``."""
    n_words = -(-simulate._row_bits(ofdm) // 64)
    return simulate._labels(ofdm, simulate._words(seed, simulate._BITS_STREAM, lo, hi, n_words))


def test_substreams_are_deterministic():
    # numpy's Philox with key (seed, stream kind) and counter (0, index, 0, 0)
    for kind, rng in ((0, simulate.bits_rng(42, 7)), (1, simulate.noise_rng(42, 7))):
        assert isinstance(rng.bit_generator, np.random.Philox)
        reference = np.random.Philox(key=42 | kind << 64, counter=7 << 64).random_raw(9)
        assert rng.bit_generator.random_raw(9).tolist() == reference.tolist()
    a = simulate.bits_rng(42, 7).integers(0, 2, 64)
    b = simulate.bits_rng(42, 7).integers(0, 2, 64)
    assert np.array_equal(a, b)


def test_bits_and_noise_streams_differ():
    bits = simulate.bits_rng(42, 7).standard_normal(64)
    noise = simulate.noise_rng(42, 7).standard_normal(64)
    assert not np.array_equal(bits, noise)


def test_papr_samples_worker_invariant():
    cfg = OfdmConfig(64, 4, 4)
    a = papr_samples(cfg, None, 2500, seed=5, workers=1)
    b = papr_samples(cfg, None, 2500, seed=5, workers=3)
    assert np.array_equal(a, b)


def test_papr_samples_seed_sensitivity():
    cfg = OfdmConfig(64, 1, 4)
    a = papr_samples(cfg, None, 100, seed=1)
    b = papr_samples(cfg, None, 100, seed=2)
    assert not np.array_equal(a, b)


def test_papr_samples_prefix_stability():
    # symbol i depends only on (seed, i): a longer run extends a shorter one
    cfg = OfdmConfig(64, 1, 4)
    short = papr_samples(cfg, None, 600, seed=5)
    long = papr_samples(cfg, None, 1100, seed=5)
    assert np.array_equal(long[:600], short)


def test_clipped_papr_samples_worker_invariant():
    cfg = OfdmConfig(64, 4, 8)
    clip_cfg = ClipConfig(iterations=3, strategy="pw")
    a = papr_samples(cfg, clip_cfg, 1500, seed=5, workers=1)
    b = papr_samples(cfg, clip_cfg, 1500, seed=5, workers=2)
    assert np.array_equal(a, b)


def test_ser_errors_worker_invariant():
    cfg = OfdmConfig(64, 1, 4)
    a = ser_errors(cfg, None, 6.0, 2500, seed=8, workers=1)
    b = ser_errors(cfg, None, 6.0, 2500, seed=8, workers=4)
    assert a == b


# --- one pass per block: grids and config sequences -------------------------

@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("lo, hi", [(0, 5), (2**32 - 2, 2**32 + 2), (2**64 - 3, 2**64)],
                         ids=["first", "across_2**32", "last"])
def test_block_draw_is_numpys_bit_stream(seed, lo, hi):
    # bit counts N * log2(M) from 2 to 6144, not all multiples of 64
    for n in (2, 4, 64, 1024):
        for order in SUPPORTED_ORDERS:
            ofdm = OfdmConfig(n, 1, order)
            bits = np.concatenate([reference_bits(ofdm, seed, i) for i in range(lo, hi)])
            labels = bits_to_labels(bits, constellation(order).bits_per_symbol)
            assert drawn_labels(ofdm, seed, lo, hi).tolist() == \
                labels.reshape(hi - lo, n).tolist()
    # word counts from 1 to 130, not all multiples of Philox's 4-word output
    for kind in (simulate._BITS_STREAM, simulate._NOISE_STREAM):
        for n in (1, 3, 4, 24, 130):
            words = simulate._words(seed, kind, lo, hi, n)
            numpys = [np.random.Philox(key=seed | kind << 64, counter=i << 64).random_raw(n)
                      for i in range(lo, hi)]
            assert words.dtype == np.uint64 and words.tolist() == np.stack(numpys).tolist()
            for cut in range(lo + 1, hi):
                parts = [simulate._words(seed, kind, lo, cut, n),
                         simulate._words(seed, kind, cut, hi, n)]
                assert np.concatenate(parts).tolist() == words.tolist()


def test_engine_builds_no_bit_generator(monkeypatch):
    # the engine computes its words itself; numpy's generators are the reference
    cfg = ClipConfig(3.0, 3, "cf")
    papr = reference_papr_db(OFDM, cfg, 200, seed=4)
    errors = [reference_ser_errors(OFDM, cfg, snr, 40, seed=4) for snr in GRID]

    def no_generator(*args):
        raise AssertionError("a numpy generator was built for one symbol")

    for name in ("bits_rng", "noise_rng", "substream"):
        monkeypatch.setattr(simulate, name, no_generator)
    assert papr_samples(OFDM, cfg, 200, seed=4).tobytes() == papr.tobytes()
    assert ser_errors(OFDM, cfg, GRID, 40, seed=4).tolist() == errors


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_papr_samples_match_symbol_by_symbol_reference(strategy):
    # 600 symbols at N*L = 128: three blocks
    cfg = ClipConfig(3.0, 3, strategy)
    samples = papr_samples(OFDM, cfg, 600, seed=4)
    assert samples.tobytes() == reference_papr_db(OFDM, cfg, 600, seed=4).tobytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ser_grid_matches_symbol_by_symbol_reference(strategy):
    cfg = ClipConfig(3.0, 3, strategy)
    counts = ser_errors(OFDM, cfg, GRID, 40, seed=4)
    assert counts.tolist() == [reference_ser_errors(OFDM, cfg, s, 40, seed=4) for s in GRID]
    assert counts[0] > 0


@settings(max_examples=100, deadline=None)
@given(strategy=st.sampled_from(STRATEGIES), n=st.sampled_from([2, 4, 8, 16, 32, 64]),
       oversample=st.sampled_from([1, 2, 4, 8]), m=st.sampled_from(SUPPORTED_ORDERS),
       cr_db=st.floats(-3.0, 9.0), k=st.integers(0, 6), name=st.sampled_from(WINDOW_NAMES),
       half=st.integers(0, 12), n_symbols=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
def test_engine_matches_independent_reference(strategy, n, oversample, m, cr_db, k, name,
                                              half, n_symbols, seed):
    # the drivers against oracles that share no crest core with them: the
    # per-sample clip, the per-peak window loop and a plain FFT mask, every
    # pass run, also those the engine skips
    ofdm = OfdmConfig(n, oversample, m)
    cfg = ClipConfig(cr_db, k, strategy, name, 2 * half + 1)
    try:
        papr = reference_papr_db(ofdm, cfg, n_symbols, seed)
    except ValueError as exc:  # a row the peak window erased
        assert "all-zero" in str(exc)
        with pytest.raises(ValueError, match="all-zero"):
            papr_samples(ofdm, cfg, n_symbols, seed)
        return
    assert papr_samples(ofdm, cfg, n_symbols, seed).tobytes() == papr.tobytes()
    assert ser_errors(ofdm, cfg, GRID, n_symbols, seed).tolist() == \
        [reference_ser_errors(ofdm, cfg, snr, n_symbols, seed) for snr in GRID]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workers", (1, 2))
def test_ser_grid_equals_per_point_calls(strategy, workers):
    # 1500 symbols at N*L = 128: six blocks, the last one short
    cfg = ClipConfig(3.0, 3, strategy)
    counts = ser_errors(OFDM, cfg, GRID, 1500, seed=4, workers=workers)
    assert counts.dtype == np.int64 and counts.shape == GRID.shape
    singles = [ser_errors(OFDM, cfg, snr, 1500, seed=4, workers=workers) for snr in GRID]
    assert all(type(s) is int for s in singles)
    assert counts.tolist() == singles


def nudged(values, ulps: int):
    """``values`` moved ``ulps`` floats up (> 0) or down (< 0)."""
    out = np.asarray(values, dtype=float)
    for _ in range(abs(ulps)):
        out = np.nextafter(out, np.copysign(np.inf, ulps))
    return out


def tie_points(m):
    """Every level of either axis of order ``m``, every midpoint between
    neighbouring levels, and 0."""
    levels = np.unique(np.concatenate(constellation(m).axes))
    return np.unique(np.concatenate([levels, (levels[1:] + levels[:-1]) / 2, [0.0]]))


def assert_error_masks_match(m, bins, labels, z, scales):
    """The SER error test's mask at each scale is the demapper's verdict."""
    axes = constellation(m).axes
    masks = list(simulate._error_masks(bins, labels, axes, z, scales))
    refs = [_kernels.nearest_labels(bins + s * z, *axes).reshape(labels.shape) != labels
            for s in scales]
    assert len(masks) == len(scales)
    for mask, ref in zip(masks, refs):
        assert mask.dtype == bool and np.array_equal(mask, ref)


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
def test_error_masks_at_every_midpoint(m):
    # every level, midpoint and 0, and the floats up to 2 either side of them,
    # on both axes, for every transmitted label: as the noiseless bins (the
    # +inf SNR point, scale 0), as the noise on zero bins (scale 1), and as
    # noise of 512 on bins of about -512, whose sum rounds to a coarser grid
    values = np.unique(np.concatenate([nudged(tie_points(m), k) for k in range(-2, 3)]))
    points = np.tile((values[:, None] + 1j * values).ravel(), (m, 1))
    labels = np.repeat(np.arange(m, dtype=np.uint8)[:, None], points.shape[1], axis=1)
    zero, one = np.zeros((m, 1)), np.ones((m, 1))
    big = np.full_like(points, 512 + 512j)
    assert_error_masks_match(m, points, labels, np.zeros_like(points), [zero])
    assert_error_masks_match(m, np.zeros_like(points), labels, points, [one, zero])
    assert_error_masks_match(m, points - big, labels, big, [one])


@pytest.mark.parametrize("m", SUPPORTED_ORDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_error_masks_equal_nearest_labels(m, data):
    rows, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    near = st.builds(lambda v, k: float(nudged(v, k)),
                     st.sampled_from(tie_points(m).tolist()), st.integers(-2, 2))
    small = st.one_of(near, st.floats(-3, 3))
    huge = st.floats(-1e170, 1e170)
    bin_value = st.one_of(small, huge) if data.draw(st.booleans()) else small

    def draw(element, shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(element, min_size=size, max_size=size))).reshape(shape)

    bins = draw(bin_value, (rows, n, 2)) @ [1, 1j]
    z = draw(st.one_of(small, st.just(0.0)), (rows, n, 2)) @ [1, 1j]
    labels = draw(st.integers(0, m - 1), (rows, n)).astype(np.uint8)
    # per row: the +inf SNR point, unit noise, a typical scale, |rx| to 1e170
    scale = st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 10), st.floats(1e100, 1e170))
    scales = [draw(scale, (rows, 1)) for _ in range(data.draw(st.integers(1, 3)))]
    assert_error_masks_match(m, bins, labels, z, scales)


@pytest.mark.filterwarnings("error")
def test_noise_alone_decides_the_lowest_snr_points():
    # the noise outweighs every bin by 1e14 or more, so only its signs set
    # the decisions and each point counts the same errors; an argmin over
    # rounded squared distances tied the levels once |rx| reached 1e16
    counts = ser_errors(OfdmConfig(), ClipConfig(), [-340.0, -320.0, -300.0], 20, seed=1)
    assert counts[0] == counts[1] == counts[2] > 0


def test_wrong_config_types_fail_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(simulate, "_block", no_block)
    for bad in ("cf", 3.0, [None, "cf"], (ClipConfig(), ClipConfig)):
        with pytest.raises(ValueError, match="clip_cfg"):
            papr_samples(OFDM, bad, 10, seed=1, workers=2)
    # ser_errors reads its configs as papr_samples does: [ClipConfig()] and
    # (None,) are sequences of one config
    for bad in ("cf", [None, "cf"], ()):
        with pytest.raises(ValueError, match="clip_cfg"):
            ser_errors(OFDM, bad, GRID, 10, seed=1)
    # a config of the wrong type fails at the boundary, not as an AttributeError
    for bad in (None, (64, 2, 16), OFDM.__dict__):
        with pytest.raises(ValueError, match="OfdmConfig"):
            papr_samples(bad, None, 10, seed=1)
        with pytest.raises(ValueError, match="OfdmConfig"):
            ser_errors(bad, ClipConfig(), GRID, 10, seed=1)


def test_config_sequence_rows_equal_single_config_calls():
    # None and iterations=0 leave the synthesized rows themselves, which the
    # SER receiver's in-place FFT must not reach: configs follow both
    cfgs = [ClipConfig(3.0, 3, "none"), ClipConfig(3.0, 3, "cf"), None,
            ClipConfig(3.0, 3, "pw", "flattop", 31), ClipConfig(iterations=0),
            ClipConfig(3.0, 2, "cf")]
    papr = [papr_samples(OFDM, cfg, 1100, seed=6).tobytes() for cfg in cfgs]
    ser = [ser_errors(OFDM, cfg, GRID, 1100, seed=6).tolist() for cfg in cfgs]
    at_7 = [ser_errors(OFDM, cfg, 7.0, 1100, seed=6) for cfg in cfgs]
    for workers in (1, 2):
        rows = papr_samples(OFDM, cfgs, 1100, seed=6, workers=workers)
        assert rows.shape == (len(cfgs), 1100)
        assert [row.tobytes() for row in rows] == papr
        counts = ser_errors(OFDM, cfgs, GRID, 1100, seed=6, workers=workers)
        assert counts.shape == (len(cfgs), GRID.size) and counts.dtype == np.int64
        assert counts.tolist() == ser
        points = ser_errors(OFDM, tuple(cfgs), 7.0, 1100, seed=6, workers=workers)
        assert points.shape == (len(cfgs),) and points.tolist() == at_7
    # the two unclipped rows: equal, and error-free without noise
    assert ser[2] == ser[4] and ser[2][list(GRID).index(np.inf)] == 0
    assert ser_errors(OFDM, [None, None], GRID, 1100, seed=6).tolist() == [ser[2]] * 2


def sweep_configs(**changes):
    """The window sweep's configs, the unclipped baseline first, as the CLI builds them."""
    return [None] + [ClipConfig(**{"strategy": "pw", "window": name, **changes})
                     for name in SWEEP_WINDOWS]


def pw(cr_db=3.0, name="hann", window_len=11):
    return ClipConfig(cr_db, 3, "pw", name, window_len)


# configs of one call share a block's first look: its levels by clip ratio,
# its first peak search by clip ratio and window length
SHARING = {
    "sweep": sweep_configs(),
    "ratios": [pw(3.0), pw(1.0), pw(3.0, "kaiser")],
    "lengths": [pw(window_len=11), pw(window_len=31), pw(3.0, "flattop", 31)],
    "cf-and-pw": [ClipConfig(3.0, 3, "cf"), pw(3.0), ClipConfig(3.0, 3, "none"), pw(1.0)],
}


@pytest.mark.parametrize("cfgs", SHARING.values(), ids=SHARING.keys())
def test_configs_sharing_a_first_look_equal_single_config_calls(cfgs):
    # flattop's negative lobes give gains above 1, so its later passes find
    # peaks the first look did not; each row still equals its lone call
    papr = [papr_samples(OFDM, cfg, 600, seed=4).tobytes() for cfg in cfgs]
    ser = [ser_errors(OFDM, cfg, GRID, 600, seed=4).tolist() for cfg in cfgs]
    for workers in (1, 2):
        rows = papr_samples(OFDM, cfgs, 600, seed=4, workers=workers)
        assert [row.tobytes() for row in rows] == papr
        assert ser_errors(OFDM, cfgs, GRID, 600, seed=4, workers=workers).tolist() == ser


@pytest.mark.parametrize("cfgs, levels, searches", [
    (sweep_configs(), 1, 1),
    (sweep_configs() + [pw(1.0), pw(window_len=31), pw(1.0, "kaiser")], 2, 3),
], ids=["sweep", "mixed"])
def test_a_block_takes_one_first_look(monkeypatch, cfgs, levels, searches):
    # the levels once per clip ratio, the first peak search once per clip
    # ratio and window length, whatever the configs' windows; a first search
    # is one that reads the synthesized rows' own magnitudes
    ofdm = OfdmConfig()
    labels = drawn_labels(ofdm, 1, 0, simulate._BLOCK_SAMPLES // ofdm.n_samples)
    x = simulate.synthesize(constellation(ofdm.mod_order).points[labels], ofdm.oversample)
    taken, first = [], []

    def threshold_from_ratio(signal, ratio, _fn=crest.threshold_from_ratio):
        taken.append(ratio)
        return _fn(signal, ratio)

    def peaks(m, a, _fn=_kernels._peaks):
        pad = (m.shape[1] - x.shape[1]) // 2
        if np.array_equal(m[:, pad:m.shape[1] - pad], np.abs(x)):
            first.append((hash(a.tobytes()), m.shape))
        return _fn(m, a)

    def peak_suppress(rows, mag, a, w, found=None, _fn=_kernels.peak_suppress):
        # what every config reads of the first look, it cannot write
        assert not a.flags.writeable and (found is None or not found[0].flags.writeable)
        return _fn(rows, mag, a, w, found)

    monkeypatch.setattr(crest, "threshold_from_ratio", threshold_from_ratio)
    monkeypatch.setattr(_kernels, "_peaks", peaks)
    monkeypatch.setattr(_kernels, "peak_suppress", peak_suppress)
    simulate._block(ofdm, cfgs, None, 1, 0, labels)
    assert len(taken) == len(set(taken)) == levels
    assert set(taken) == {cfg.clip_ratio_db for cfg in cfgs if cfg is not None}
    assert len(set(first)) == len(first) == searches


# what the engine gave for FOLD_CFGS, 300 symbols, seed 9, before each block
# was folded into one result: the sha256 of the PAPR rows' bytes, and the
# error counts at GRID
FOLD_CFGS = (None, ClipConfig(3.0, 2, "cf"), ClipConfig(3.0, 2, "pw"))
FOLD_PAPR_SHA256 = "04ceab0b1484ea3973b1c2a4a9de4b778b805539c2abdd89bccb0d8056248e12"
FOLD_SER = [[10288, 3612, 0, 327], [10613, 4890, 104, 1674], [10802, 5643, 656, 2539]]


@pytest.mark.parametrize("block, workers, span", [
    (1, 1, None), (1, 2, None), (3, 1, None), (3, 2, None), (7, 1, None), (7, 2, None),
    (7, 3, None), (256, 2, None), (1, 1, 1), (1, 2, 1), (3, 1, 1), (3, 2, 1), (7, 1, 1),
    (7, 2, 1), (3, 1, 10**9), (3, 2, 10**9),
], ids=["1-1", "1-2", "3-1", "3-2", "7-1", "7-2", "7-3", "256-2", "1-1-span1", "1-2-span1",
        "3-1-span1", "3-2-span1", "7-1-span1", "7-2-span1", "3-1-share", "3-2-share"])
def test_results_do_not_depend_on_block_or_workers(monkeypatch, block, workers, span):
    # block in rows, the engine's budget is in samples; span in blocks per
    # bit draw: one, or every block of a share (None keeps the engine's).
    # Every block's result is folded into the run's, in a forked share first
    # at 2 workers; a config list and each lone config give the same bytes.
    monkeypatch.setattr(simulate, "_BLOCK_SAMPLES", block * OFDM.n_samples)
    if span is not None:
        monkeypatch.setattr(simulate, "_span_blocks", lambda ofdm: span)
    papr = papr_samples(OFDM, FOLD_CFGS, 300, seed=9, workers=workers)
    assert papr.shape == (3, 300)
    assert hashlib.sha256(papr.tobytes()).hexdigest() == FOLD_PAPR_SHA256
    assert ser_errors(OFDM, FOLD_CFGS, GRID, 300, seed=9, workers=workers).tolist() == FOLD_SER
    lone = papr_samples(OFDM, FOLD_CFGS[2], 300, seed=9, workers=workers)
    assert lone.tobytes() == papr[2].tobytes()
    assert ser_errors(OFDM, FOLD_CFGS[1], GRID, 300, seed=9, workers=workers).tolist() == FOLD_SER[1]


@pytest.mark.parametrize("ofdm, n_symbols", [
    (OFDM, 300),
    (OFDM, 5000),  # two full spans of 2048 rows and a part
    (OfdmConfig(1024, 8, 64), 6),
    (OfdmConfig(8192, 8, 4), 2),  # one row of 65536 samples, over the budget
], ids=["many_rows", "many_spans", "few_rows", "row_over_budget"])
def test_kernels_get_at_most_one_block(monkeypatch, ofdm, n_symbols):
    # the SER error test's temporaries are a fixed number of copies of its
    # bins, labels and noise
    budget = max(simulate._BLOCK_SAMPLES, ofdm.n_samples)
    # a span, one Philox pass, is the most blocks whose bits, one byte each,
    # would fit in one block's complex rows
    rows = max(1, min(simulate._BLOCK_SAMPLES // ofdm.n_samples, n_symbols))
    block_bytes = rows * ofdm.n_samples * np.dtype(np.complex128).itemsize
    row_bits = ofdm.n_subcarriers * constellation(ofdm.mod_order).bits_per_symbol
    span = simulate._span_blocks(ofdm)
    assert span > 1
    assert span * rows * row_bits <= block_bytes < (span + 1) * rows * row_bits
    sizes = {"peak_suppress": [], "_error_masks": []}

    def spy(module, name, arrays):
        kernel = getattr(module, name)

        def call(*args):
            sizes[name] += [args[i].size for i in arrays]
            return kernel(*args)
        monkeypatch.setattr(module, name, call)

    spy(simulate._kernels, "peak_suppress", [0])
    spy(simulate, "_error_masks", [0, 1, 3])  # bins, labels, noise
    # the bits a block unpacks, its largest temporary of the bit draw
    bits_to_labels = simulate.bits_to_labels
    unpacked = []

    def labels_of(bits, k):
        unpacked.append(bits.nbytes)
        return bits_to_labels(bits, k)
    monkeypatch.setattr(simulate, "bits_to_labels", labels_of)
    cfg = ClipConfig(3.0, 2, "pw")
    papr_samples(ofdm, cfg, n_symbols, seed=3)
    ser_errors(ofdm, cfg, [-340.0, 6.0, np.inf], n_symbols, seed=3)
    assert all(sizes.values()) and unpacked
    assert max(sum(sizes.values(), [])) <= budget
    # each block unpacks only its own rows' bits, never its span's
    assert max(unpacked) == rows * row_bits


def test_bits_are_drawn_per_span_of_blocks(monkeypatch):
    # N=1024, L=8, 64-QAM: 4 rows a block, 125 blocks, 21 blocks a span;
    # one Philox pass per block took 125
    words = simulate._words
    kinds = []

    def spy(seed, kind, lo, hi, n):
        kinds.append(kind)
        return words(seed, kind, lo, hi, n)

    monkeypatch.setattr(simulate, "_words", spy)
    papr_samples(OfdmConfig(1024, 8, 64), None, 500, seed=4)
    assert 0 < kinds.count(simulate._BITS_STREAM) <= 6


def minor_faults() -> int:
    import resource  # POSIX only
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
@pytest.mark.parametrize("ofdm, strategy", [
    (OfdmConfig(64, 4, 8), "none"),
    (OfdmConfig(64, 4, 8), "cf"),
    (OfdmConfig(64, 4, 8), "pw"),
    (OfdmConfig(1024, 8, 64), "pw"),
], ids=["none", "cf", "pw", "bign_pw"])
def test_serial_blocks_reuse_their_memory(ofdm, strategy):
    # A run raises the malloc thresholds over a block's arrays before its
    # first block, so a block's freed arrays stay on the heap for the next
    # one and, once the process is warm, ten more blocks cost almost no page
    # faults; block-sized arrays unmapped or trimmed after each block would
    # be faulted back in, hundreds of pages a block.
    cfg = ClipConfig(3.0, 5, strategy)
    rows = simulate._BLOCK_SAMPLES // ofdm.n_samples

    def faults(n_blocks):
        start = minor_faults()
        papr_samples(ofdm, cfg, n_blocks * rows, seed=1)
        return minor_faults() - start

    for _ in range(2):  # warm-up: the allocator adapts its thresholds on the first frees
        faults(12)
    extra = faults(12) - faults(2)
    assert extra <= 10 * 10


COLD_RUN = """
import resource, sys
from ofdmclip import ClipConfig, OfdmConfig, papr_samples, simulate
ofdm, n_blocks = OfdmConfig(64, 4, 8), int(sys.argv[2])
rows = simulate._BLOCK_SAMPLES // ofdm.n_samples
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
papr_samples(ofdm, ClipConfig(3.0, 5, sys.argv[1]), n_blocks * rows, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def fresh_process_count(code: str, *args: str) -> int:
    """The count a fresh interpreter prints when it runs ``code`` on this
    checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
@pytest.mark.parametrize("strategy", ["cf", "pw"])
def test_cold_process_does_not_fault_per_block(strategy):
    # The first run in a fresh process: block-sized float temporaries that
    # glibc maps and unmaps on every block would fault hundreds of pages a block.
    def faults(n_blocks):
        return fresh_process_count(COLD_RUN, strategy, str(n_blocks))

    assert faults(12) - faults(2) <= 10 * 10


POOL_RUN = """
import resource
from ofdmclip import ClipConfig, OfdmConfig, papr_samples, ser_errors, simulate
ofdm = OfdmConfig(64, 4, 8)
rows = simulate._BLOCK_SAMPLES // ofdm.n_samples

def faults(n_blocks):
    start = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    papr_samples(ofdm, ClipConfig(3.0, 5, "pw"), n_blocks * rows, seed=1, workers=2)
    ser_errors(ofdm, ClipConfig(), [6.0, 12.0], n_blocks * rows, seed=1, workers=2)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - start

few = faults(4)
print(faults(24) - few)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_pool_workers_do_not_fault_per_block():
    # Forked workers inherit the malloc thresholds the parent raised before
    # the pool started; without them each worker maps and faults its block
    # temporaries in again on every block, hundreds of pages a block.
    assert fresh_process_count(POOL_RUN) <= 20 * 50


@pytest.fixture
def pools(monkeypatch):
    """Replace the fork runner with a stand-in that runs each share in this
    process; returns one (children, blocks) entry per parallel run, after
    checking that its shares follow each other from symbol 0."""
    started, blocks, block = [], [], simulate._block

    def counted(*args):
        blocks.append(args)
        return block(*args)

    def in_process(run, shares, fold, out):
        blocks.clear()
        for lo, hi in shares:
            out = fold(out, lo, run(lo, hi))
        assert all(a[1] == b[0] for a, b in zip(shares, shares[1:])) and shares[0][0] == 0
        started.append((len(shares), len(blocks)))
        return out

    monkeypatch.setattr(simulate, "_block", counted)
    monkeypatch.setattr(_fork, "fork_shares", in_process)
    return started


def test_serial_runs_start_no_pool(pools):
    # 600 symbols at N*L = 128 are three blocks, but workers=1 keeps them here;
    # one symbol is one block, whatever the worker count
    papr_samples(OFDM, ClipConfig(), 600, seed=1, workers=1)
    ser_errors(OFDM, ClipConfig(), GRID, 600, seed=1, workers=1)
    papr_samples(OFDM, ClipConfig(), 1, seed=1, workers=2)
    ser_errors(OFDM, ClipConfig(), GRID, 1, seed=1, workers=2)
    assert pools == []


def test_every_worker_gets_a_block_below_the_budget(pools):
    # a run of only 6 symbols still gives each of two children a block
    ofdm, cfg = OfdmConfig(1024, 8, 64), ClipConfig(3.0, 2, "pw")
    serial = papr_samples(ofdm, cfg, 6, seed=3, workers=1)
    assert pools == []
    parallel = papr_samples(ofdm, cfg, 6, seed=3, workers=2)
    assert len(pools) == 1 and pools[0][0] == 2 and pools[0][1] >= 2
    assert parallel.tobytes() == serial.tobytes()


def test_pool_has_at_most_one_worker_per_cpu(pools):
    # blocks are cut for the children that run them: a million workers asked
    # for run the same shares as one per CPU, never more children than CPUs
    # or blocks
    cpus = simulate._cpus()
    n_symbols = 2 * cpus + 1
    serial = papr_samples(OFDM, ClipConfig(), n_symbols, seed=2, workers=1)
    per_cpu = papr_samples(OFDM, ClipConfig(), n_symbols, seed=2, workers=cpus)
    started = list(pools)
    assert len(started) == (cpus > 1)
    parallel = papr_samples(OFDM, ClipConfig(), n_symbols, seed=2, workers=10**6)
    assert pools[len(started):] == started
    assert all(children <= min(cpus, blocks) for children, blocks in pools)
    assert parallel.tobytes() == per_cpu.tobytes() == serial.tobytes()


def test_pool_fits_the_cpus_this_process_may_use(pools, monkeypatch):
    # pinned to one CPU (taskset -c 0), or where there is no os.fork, a
    # 2-worker run forks nothing
    serial = papr_samples(OFDM, ClipConfig(), 600, seed=2, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert simulate._cpus() == 1
    assert papr_samples(OFDM, ClipConfig(), 600, seed=2, workers=2).tobytes() == serial.tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert simulate._cpus() == 1
    assert papr_samples(OFDM, ClipConfig(), 600, seed=2, workers=2).tobytes() == serial.tobytes()
    assert pools == []


FORKS = pytest.mark.skipif(simulate._cpus() < 2,
                           reason="forks two children: needs os.fork and 2 CPUs")


def no_children_left():
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@FORKS
def test_a_childs_error_reaches_the_caller(monkeypatch):
    # a rect window of 255 samples on N*L = 256 erases rows in both children
    cfg, ofdm = ClipConfig(3.0, 4, "pw", "rect", 255), OfdmConfig(64, 4, 8)
    with pytest.raises(ValueError, match="all-zero row"):
        papr_samples(ofdm, cfg, 200, seed=1, workers=2)
    with pytest.raises(ValueError, match="all-zero row"):
        ser_errors(ofdm, cfg, GRID, 200, seed=1, workers=2)

    class Local(Exception):  # defined here, so pickle cannot find it again
        pass

    def unpicklable(*args):
        raise Local("cannot be sent")

    monkeypatch.setattr(simulate, "_block", unpicklable)
    with pytest.raises(RuntimeError, match="Local.*cannot be sent"):
        papr_samples(OFDM, ClipConfig(), 600, seed=1, workers=2)
    assert no_children_left()


@FORKS
def test_a_child_that_dies_without_a_result_raises(monkeypatch):
    parent = os.getpid()
    block = simulate._block

    def dies(ofdm, clip_cfgs, snr_db, seed, lo, labels):
        if os.getpid() != parent and lo > 0:
            os._exit(3)
        return block(ofdm, clip_cfgs, snr_db, seed, lo, labels)

    monkeypatch.setattr(simulate, "_block", dies)
    with pytest.raises(RuntimeError, match="ended with code 3 and no result"):
        papr_samples(OFDM, ClipConfig(), 600, seed=1, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@FORKS
def test_an_interrupted_run_kills_and_reaps_its_children(monkeypatch):
    import signal
    import time

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    monkeypatch.setattr(simulate, "_block", lambda *args: time.sleep(60))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            papr_samples(OFDM, ClipConfig(), 600, seed=1, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert no_children_left()


@FORKS
def test_each_share_is_unpickled_and_folded_before_the_next(monkeypatch):
    # the parent holds one share's pickle at a time: it reaps a child, loads
    # its result and folds it, in share order, before it reads the next pipe
    events, real = [], _fork.pickle

    class Spy:  # forked children pickle their results with the real dumps
        dumps = staticmethod(real.dumps)

        @staticmethod
        def loads(data):
            events.append("loads")
            return real.loads(data)

    def fold(out, lo, part):
        events.append(lo)
        return out + [part]

    monkeypatch.setattr(_fork, "pickle", Spy)
    shares = [(0, 3), (3, 5), (5, 9)]
    out = _fork.fork_shares(lambda lo, hi: list(range(lo, hi)), shares, fold, [])
    assert out == [[0, 1, 2], [3, 4], [5, 6, 7, 8]]
    assert events == ["loads", 0, "loads", 3, "loads", 5]
    assert no_children_left()


@FORKS
def test_an_interrupt_after_a_reap_still_kills_and_reaps_the_rest(monkeypatch):
    # the interrupt lands after a child is reaped and before it leaves the
    # list: the kill of that reaped child must not stop the others' kill
    import time

    class Interrupted(Exception):
        pass

    waitpid, reaped = os.waitpid, []

    def reap_then_interrupt(pid, options):
        out = waitpid(pid, options)
        if not reaped:
            reaped.append(pid)
            raise Interrupted
        return out

    start = time.monotonic()
    with monkeypatch.context() as m:
        m.setattr(os, "waitpid", reap_then_interrupt)
        with pytest.raises(Interrupted):
            _fork.fork_shares(lambda lo, hi: time.sleep(60) if lo else [],
                              [(0, 1), (1, 2), (2, 3)], lambda out, lo, part: out, [])
    assert time.monotonic() - start < 30
    assert reaped and no_children_left()


def test_clip_loop_runs_no_boundary_check(monkeypatch):
    # the rows are checked once, by threshold_from_ratio; every iteration
    # runs only the in-place cores
    calls = []

    def count(*names):
        for name in names:
            def counted(*args, _name=name, _fn=getattr(crest, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(crest, name, counted)

    count("_work_rows", "_check_length", "_check_oversample")
    cfgs = [None] + [ClipConfig(3.0, 3, strategy) for strategy in STRATEGIES]
    papr_samples(OFDM, cfgs, 300, seed=1)
    ser_errors(OFDM, ClipConfig(), GRID, 300, seed=1)
    ser_errors(OFDM, ClipConfig(3.0, 3, "pw"), GRID, 300, seed=1)
    assert calls == []
    x = np.ones((2, OFDM.n_samples), dtype=complex)
    crest.clip(x, 1.0)
    crest.oob_filter(x, OFDM.n_subcarriers, OFDM.oversample)
    assert calls == ["_work_rows", "_check_length", "_check_oversample"]
    # the public peak window checks its copy once, then borders it as the
    # clip loop does
    calls.clear()
    count("_border")
    crest.peak_window_suppress(x, 1.0, "hann", 11)
    assert calls == ["_work_rows", "_border"]


def test_clip_loop_works_in_the_rows_it_is_given(rng):
    # the loop yields only its counts, Python ints: the rows are the
    # caller's, and a drained loop holds no reference to them
    labels = rng.integers(0, OFDM.mod_order, (2, OFDM.n_subcarriers))
    x = simulate.synthesize(constellation(OFDM.mod_order).points[labels], OFDM.oversample)
    before = x.tobytes()
    for cfg in (None, ClipConfig(iterations=0)):
        assert list(crest._clip_loop(x, cfg, OFDM, {})) == []
    assert x.tobytes() == before
    for strategy in STRATEGIES:
        rows = x.copy()
        alive = weakref.ref(rows)
        for above in crest._clip_loop(rows, ClipConfig(strategy=strategy), OFDM, {}):
            assert type(above) is int
        assert rows.tobytes() != before
        del rows
        assert alive() is None


SER_GRID = np.arange(0.0, 15.0, 2.0)  # the ser command's 8 default points


@pytest.mark.parametrize("cfg, snr_db, bound", [(ClipConfig(), None, 2.25),
                                                (ClipConfig(strategy="none"), None, 2.25),
                                                (ClipConfig(strategy="pw"), None, 3.0),
                                                (ClipConfig(), SER_GRID, 1.8),
                                                (ClipConfig(strategy="pw"), SER_GRID, 3.0)],
                         ids=["cf", "none", "pw", "ser-cf", "ser-pw"])
def test_one_config_block_holds_its_rows_once(cfg, snr_db, bound):
    # tracemalloc peak of one block, in blocks of complex rows: a lone config
    # works in the synthesized rows, and cf and none free the first |x|
    # after the first clip.  Each bound failed when every config took a copy
    # (3.43, 3.12, 3.83 and 3.68 blocks).  A SER block keeps only each
    # config's powers and in-band bins and frees its rows, and its first
    # look, before it draws and tests the noise (ser-cf 1.70, ser-pw 2.83);
    # 2.44 and 3.08 when the rows stayed alive through the error test.
    ofdm = OfdmConfig()
    labels = drawn_labels(ofdm, 1, 0, simulate._BLOCK_SAMPLES // ofdm.n_samples)
    simulate._block(ofdm, (cfg,), snr_db, 1, 0, labels)  # caches filled first
    tracemalloc.start()
    try:
        simulate._block(ofdm, (cfg,), snr_db, 1, 0, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (labels.shape[0] * ofdm.n_samples * 16) <= bound


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg", [ClipConfig(), ClipConfig(strategy="none"), None],
                         ids=["cf", "none", "unclipped"])
def test_a_clip_block_holds_no_magnitudes_beside_its_temporaries(cfg):
    # tracemalloc peak of one block, in blocks of complex rows: cf and none
    # take their levels from the rows and each clip frees its own |x| before
    # its rescale, and the PAPR adds its imaginary squares a chunk at a time
    # (1.69 blocks for cf and none, 1.63 unclipped; 2.12 and 2.00 when the
    # first |x| was held through the first clip and the squares summed whole)
    ofdm = OfdmConfig()
    labels = drawn_labels(ofdm, 1, 0, simulate._BLOCK_SAMPLES // ofdm.n_samples)
    simulate._block(ofdm, (cfg,), None, 1, 0, labels)  # caches filled first
    peak = traced_peak(lambda: simulate._block(ofdm, (cfg,), None, 1, 0, labels))
    assert peak / (labels.shape[0] * ofdm.n_samples * 16) <= 1.8


def test_a_sweep_block_holds_one_copy_at_a_time():
    # tracemalloc peak of one window-sweep block, in blocks of complex rows:
    # the synthesized rows, one window's copy and its bordered magnitudes and
    # temporaries (3.997 blocks, 2047 KiB at 32768 samples).  The shared first
    # look adds only the levels and the first peaks; a copy of the bordered
    # magnitudes kept for every window would read about 4.5.
    ofdm = OfdmConfig()
    labels = drawn_labels(ofdm, 1, 0, simulate._BLOCK_SAMPLES // ofdm.n_samples)
    cfgs = sweep_configs()
    simulate._block(ofdm, cfgs, None, 1, 0, labels)  # caches filled first
    tracemalloc.start()
    try:
        simulate._block(ofdm, cfgs, None, 1, 0, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (labels.shape[0] * ofdm.n_samples * 16) <= 4.25


def test_papr_samples_holds_its_result_once():
    # each block is written into one preallocated result: a large run peaks
    # at most 8 B a symbol above a small one, whose peak is the run's fixed
    # working set; a list of block arrays and their concatenation held 16 B
    ofdm, cfg = OfdmConfig(), ClipConfig(iterations=0)
    small = traced_peak(lambda: papr_samples(ofdm, cfg, 3000, seed=1))
    assert traced_peak(lambda: papr_samples(ofdm, cfg, 300000, seed=1)) <= small + 8 * 300000


def test_synthesized_rows_are_copied_only_for_a_later_config(monkeypatch):
    # the clip loop and the receiver's FFT run in place: the last config, and
    # for PAPR a config that writes nothing, get the synthesized rows
    # themselves, and every other config one copy; decided by position, as
    # [None, None] holds one object twice.  Each row of a call still equals
    # the single-config call.
    n = simulate._BLOCK_SAMPLES // OFDM.n_samples  # one block
    synthesized, own_rows = [], []

    def synthesize(*args, _fn=simulate.synthesize):
        synthesized.append(_fn(*args))
        return synthesized[-1]

    def clip_loop(x, *args, _fn=simulate._clip_loop):
        own_rows.append(x is synthesized[-1])
        return _fn(x, *args)

    monkeypatch.setattr(simulate, "synthesize", synthesize)
    monkeypatch.setattr(simulate, "_clip_loop", clip_loop)
    cfg, idle = ClipConfig(), ClipConfig(iterations=0)
    for cfgs, papr_own, ser_own in (([None, None], [True, True], [False, True]),
                                    ([idle, None], [True, True], [False, True]),
                                    ([None, cfg], [True, True], [False, True]),
                                    ([cfg, cfg], [False, True], [False, True]),
                                    ([cfg, None], [False, True], [False, True])):
        for run, own in ((lambda c: papr_samples(OFDM, c, n, seed=3), papr_own),
                         (lambda c: ser_errors(OFDM, c, GRID, n, seed=3), ser_own)):
            own_rows.clear()
            rows = run(cfgs)
            assert own_rows == own, cfgs
            for c, row in zip(cfgs, rows):
                own_rows.clear()
                assert run(c).tobytes() == row.tobytes()
                assert own_rows == [True]  # one config: no later one reads the rows


def test_each_peak_window_is_computed_once(monkeypatch):
    # np.kaiser takes ~0.3 ms: the clip loop builds no window per iteration,
    # and the public window() still hands out fresh, writable arrays
    calls = []

    def counting_window(kind, length):
        calls.append((kind, length))
        return window(kind, length)

    crest._coefficients.cache_clear()
    monkeypatch.setattr(crest, "window", counting_window)
    cfgs = [ClipConfig(3.0, 5, "pw", name) for name in ("hann", "kaiser")]
    papr_samples(OFDM, cfgs, 600, seed=1)  # three blocks at N*L = 128
    assert 0 < len(calls) <= len(cfgs) * 3
    w = window("kaiser", 11)
    w[:] = 0.0
    assert crest._coefficients(WindowKind("kaiser"), 11).all()


def test_grid_and_sequence_validation(monkeypatch):
    with pytest.raises(ValueError):
        ser_errors(OFDM, None, GRID.reshape(2, 2), 10, seed=1)

    def no_draw(*args):
        raise AssertionError("a symbol was drawn before the SNR input was checked")

    with monkeypatch.context() as m:  # every draw, bits or noise, goes through _words
        m.setattr(simulate, "_words", no_draw)
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="at least one SNR point"):
                ser_errors(OFDM, None, empty, 10, seed=1)
        with pytest.raises(ValueError, match="1-D grid"):
            ser_errors(OFDM, None, GRID.reshape(2, 2), 10, seed=1)
    for snr in (np.nan, -np.inf):
        with pytest.raises(ValueError):
            ser_errors(OFDM, None, [10.0, snr], 10, seed=1)
    with pytest.raises(ValueError):
        papr_samples(OFDM, [], 10, seed=1)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            papr_samples(OFDM, None, 10, seed=1, workers=workers)
    # run parameters are integers: a float is not truncated, even when whole
    for name, kwargs in (("seed", dict(seed=1.7)), ("seed", dict(seed=1.0)),
                         ("workers", dict(seed=1, workers=1.5)),
                         ("n_symbols", dict(n_symbols=10.0, seed=1))):
        with pytest.raises(ValueError, match=name):
            papr_samples(OFDM, None, **{"n_symbols": 10, **kwargs})
        with pytest.raises(ValueError, match=name):
            ser_errors(OFDM, None, 10.0, **{"n_symbols": 10, **kwargs})
    assert np.array_equal(papr_samples(OFDM, None, np.int64(10), seed=np.uint64(1),
                                       workers=np.int32(1)),
                          papr_samples(OFDM, None, 10, seed=1))


def test_erased_symbol_raises_instead_of_measuring():
    # peak windowing with a rect window of 255 on N*L = 256 zeroes whole rows;
    # an erased row has no PAPR and no signal power to set the noise from
    ofdm = OfdmConfig(64, 4, 8)
    cfg = ClipConfig(3.0, 5, "pw", "rect", 255)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="all-zero"):
            papr_samples(ofdm, cfg, 50, seed=1)
        with pytest.raises(ValueError, match="all-zero"):
            ser_errors(ofdm, cfg, GRID, 50, seed=1)
