"""Deterministic seeding and parallel-schedule independence."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmclip import (SUPPORTED_ORDERS, ClipConfig, OfdmConfig, WindowKind, analyze,
                      constellation, demap_points, extract_inband, map_bits, measure_ser,
                      papr_db, papr_samples, rcf, ser_errors, window)
from ofdmclip import _fork, _kernels, crest, simulate
from ofdmclip.modulation import bits_to_labels

SRC = Path(__file__).resolve().parent.parent / "src"
OFDM = OfdmConfig(64, 2, 16)
# below, near and above the waterfall, plus the no-noise point
GRID = np.array([2.0, 7.5, np.inf, 12.0])
STRATEGIES = ("none", "cf", "pw")


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

def reference_bits(ofdm, seed, i):
    """Symbol i's bits under RNG contract v2: bit j is bit j % 64, counting
    from the low bit, of word j // 64 of numpy's Philox for its bits stream."""
    n = ofdm.n_subcarriers * constellation(ofdm.mod_order).bits_per_symbol
    words = np.random.Philox(key=seed, counter=i << 64).random_raw(-(-n // 64))
    return np.array([int(w) >> b & 1 for w in words for b in range(64)][:n], dtype=np.uint8)


def reference_symbol(ofdm, seed, i):
    """Symbol i's bits and its Gray-mapped bins."""
    bits = reference_bits(ofdm, seed, i)
    return bits, map_bits(bits, ofdm.mod_order)


def reference_noise(seed, i, n):
    """Symbol i's n complex normals: Box-Muller on 53-bit uniforms from
    words 2j and 2j + 1 of numpy's Philox for its noise stream."""
    words = np.random.Philox(key=seed | 1 << 64, counter=i << 64).random_raw(2 * n)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    r = np.sqrt(-2 * np.log1p(-u[0::2]))
    t = 2 * np.pi * u[1::2]
    return r * np.cos(t) + 1j * (r * np.sin(t))


def reference_papr_db(ofdm, cfg, n_symbols, seed):
    """Symbol by symbol through the public single-signal functions."""
    return np.array([papr_db(rcf(reference_symbol(ofdm, seed, i)[1], cfg, ofdm)[0])
                     for i in range(n_symbols)])


def reference_ser_errors(ofdm, cfg, snr_db, n_symbols, seed):
    """Symbol by symbol through the public single-signal functions; symbol
    i's noise, at the variance per sample the SNR sets, goes on its in-band
    bins, the same variance per bin through the unitary FFT."""
    k = constellation(ofdm.mod_order).bits_per_symbol
    errors = 0
    for i in range(n_symbols):
        bits, symbol = reference_symbol(ofdm, seed, i)
        x, _ = rcf(symbol, cfg, ofdm)
        bins = extract_inband(analyze(x), ofdm.n_subcarriers)
        if not np.isposinf(snr_db):
            sigma2 = np.mean(np.abs(x) ** 2) / 10.0 ** (snr_db / 10.0)
            bins = bins + np.sqrt(sigma2 / 2.0) * reference_noise(seed, i, ofdm.n_subcarriers)
        rx = demap_points(bins, ofdm.mod_order)
        errors += int((rx != bits).reshape(-1, k).any(axis=1).sum())
    return errors


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
            assert simulate._draw_labels(ofdm, seed, lo, hi).tolist() == \
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
    for bad in ("cf", [ClipConfig()], (None,)):
        with pytest.raises(ValueError, match="clip_cfg"):
            ser_errors(OFDM, bad, GRID, 10, seed=1)


def test_config_sequence_rows_equal_single_config_calls():
    cfgs = [ClipConfig(3.0, 3, "none"), ClipConfig(3.0, 3, "cf"), None,
            ClipConfig(3.0, 3, "pw", "flattop", 31), ClipConfig(iterations=0)]
    rows = papr_samples(OFDM, cfgs, 1100, seed=6, workers=2)
    assert rows.shape == (len(cfgs), 1100)
    for row, cfg in zip(rows, cfgs):
        assert row.tobytes() == papr_samples(OFDM, cfg, 1100, seed=6).tobytes()


@pytest.mark.parametrize("block, workers, span", [
    (1, 1, None), (3, 2, None), (7, 3, None), (256, 2, None),
    (3, 1, 1), (3, 2, 1), (3, 1, 10**9), (3, 2, 10**9),
], ids=["1-1", "3-2", "7-3", "256-2", "3-1-span1", "3-2-span1", "3-1-share", "3-2-share"])
def test_results_do_not_depend_on_block_or_workers(monkeypatch, block, workers, span):
    # block in rows, the engine's budget is in samples; span in blocks per
    # bit draw: one, or every block of a share (None keeps the engine's)
    cfgs = (None, ClipConfig(3.0, 2, "cf"), ClipConfig(3.0, 2, "pw"))
    papr = papr_samples(OFDM, cfgs, 300, seed=9)
    ser = ser_errors(OFDM, cfgs[2], GRID, 300, seed=9)
    monkeypatch.setattr(simulate, "_BLOCK_SAMPLES", block * OFDM.n_samples)
    if span is not None:
        monkeypatch.setattr(simulate, "_span_blocks", lambda ofdm: span)
    assert papr_samples(OFDM, cfgs, 300, seed=9, workers=workers).tobytes() == papr.tobytes()
    assert ser_errors(OFDM, cfgs[2], GRID, 300, seed=9, workers=workers).tolist() == ser.tolist()


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
    # a span is the most blocks whose unpacked bits, one byte each, fit in
    # one block's complex rows
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
    # a bit draw's largest temporary is its unpacked bits
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
    assert max(unpacked) <= block_bytes
    if n_symbols > 2 * span * rows:
        assert max(unpacked) == span * rows * row_bits  # a full span was drawn


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
    started = []

    def in_process(run, shares):
        results = [run(lo, hi) for lo, hi in shares]
        assert all(a[1] == b[0] for a, b in zip(shares, shares[1:])) and shares[0][0] == 0
        started.append((len(shares), sum(map(len, results))))
        return sum(results, [])

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


def test_clip_loop_runs_no_boundary_check(monkeypatch):
    # the rows are checked once, by threshold_from_ratio; every iteration
    # runs only the in-place cores
    calls = []
    for name in ("_work_rows", "_check_length", "_check_oversample"):
        def counted(*args, _name=name, _fn=getattr(crest, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(crest, name, counted)
    cfgs = [None] + [ClipConfig(3.0, 3, strategy) for strategy in STRATEGIES]
    papr_samples(OFDM, cfgs, 300, seed=1)
    ser_errors(OFDM, ClipConfig(), GRID, 300, seed=1)
    ser_errors(OFDM, ClipConfig(3.0, 3, "pw"), GRID, 300, seed=1)
    assert calls == []
    x = np.ones((2, OFDM.n_samples), dtype=complex)
    crest.clip(x, 1.0)
    crest.oob_filter(x, OFDM.n_subcarriers, OFDM.oversample)
    assert calls == ["_work_rows", "_check_length", "_check_oversample"]


def test_clip_loop_copies_only_to_clip(rng):
    labels = rng.integers(0, OFDM.mod_order, (2, OFDM.n_subcarriers))
    x = simulate.synthesize(constellation(OFDM.mod_order).points[labels], OFDM.oversample)
    before = x.tobytes()
    for cfg in (None, ClipConfig(iterations=0)):
        assert crest._rcf_rows(x, cfg, OFDM) is x
    for strategy in STRATEGIES:
        y = crest._rcf_rows(x, ClipConfig(strategy=strategy), OFDM)
        assert not np.shares_memory(y, x) and y.tobytes() != before
    assert x.tobytes() == before


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

    with monkeypatch.context() as m:
        m.setattr(simulate, "_draw_labels", no_draw)
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="at least one SNR point"):
                ser_errors(OFDM, None, empty, 10, seed=1)
        for grid in ([6.0, 8.0], []):
            with pytest.raises(ValueError, match="one SNR point"):
                measure_ser(OFDM, None, grid, 10, seed=1)
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
