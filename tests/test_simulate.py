"""Deterministic seeding and parallel-schedule independence."""
import numpy as np
import pytest

from ofdmclip import (ClipConfig, OfdmConfig, analyze, awgn, constellation,
                      demap_points, extract_inband, map_bits, papr_db, papr_samples,
                      rcf, ser_errors)
from ofdmclip import simulate

OFDM = OfdmConfig(64, 2, 16)
# below, near and above the waterfall, plus the no-noise point
GRID = np.array([2.0, 7.5, np.inf, 12.0])
STRATEGIES = ("none", "cf", "pw")


def test_substreams_are_deterministic():
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


# --- one pass per chunk: grids and config sequences -------------------------

def reference_symbol(ofdm, seed, i):
    """Symbol i's bits, drawn from its bit substream, and its Gray-mapped bins."""
    k = constellation(ofdm.mod_order).bits_per_symbol
    bits = simulate.bits_rng(seed, i).integers(0, 2, ofdm.n_subcarriers * k, dtype=np.uint8)
    return bits, map_bits(bits, ofdm.mod_order)


def reference_papr_db(ofdm, cfg, n_symbols, seed):
    """Symbol by symbol through the public single-signal functions."""
    return np.array([papr_db(rcf(reference_symbol(ofdm, seed, i)[1], cfg, ofdm)[0])
                     for i in range(n_symbols)])


def reference_ser_errors(ofdm, cfg, snr_db, n_symbols, seed):
    """Symbol by symbol through the public single-signal functions; symbol
    i's noise is awgn stream i, which is its noise substream."""
    k = constellation(ofdm.mod_order).bits_per_symbol
    errors = 0
    for i in range(n_symbols):
        bits, symbol = reference_symbol(ofdm, seed, i)
        x, _ = rcf(symbol, cfg, ofdm)
        y = awgn(x, snr_db, seed, stream=i)
        rx = demap_points(extract_inband(analyze(y), ofdm.n_subcarriers), ofdm.mod_order)
        errors += int((rx != bits).reshape(-1, k).any(axis=1).sum())
    return errors


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_papr_samples_match_symbol_by_symbol_reference(strategy):
    # 600 symbols at N*L = 128: two blocks
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
    # 1500 symbols: chunks of 1024 and 476 rows, each over several noise blocks
    cfg = ClipConfig(3.0, 3, strategy)
    counts = ser_errors(OFDM, cfg, GRID, 1500, seed=4, workers=workers)
    assert counts.dtype == np.int64 and counts.shape == GRID.shape
    singles = [ser_errors(OFDM, cfg, snr, 1500, seed=4, workers=workers) for snr in GRID]
    assert all(type(s) is int for s in singles)
    assert counts.tolist() == singles


def test_config_sequence_rows_equal_single_config_calls():
    cfgs = [ClipConfig(3.0, 3, "none"), ClipConfig(3.0, 3, "cf"), None,
            ClipConfig(3.0, 3, "pw", "flattop", 31), ClipConfig(iterations=0)]
    rows = papr_samples(OFDM, cfgs, 1100, seed=6, workers=2)
    assert rows.shape == (len(cfgs), 1100)
    for row, cfg in zip(rows, cfgs):
        assert row.tobytes() == papr_samples(OFDM, cfg, 1100, seed=6).tobytes()


@pytest.mark.parametrize("chunk, block", [(1, 256), (7, 3), (1024, 1)])
def test_results_do_not_depend_on_chunk_or_block(monkeypatch, chunk, block):
    # block in rows; the engine's budget is in samples
    cfgs = (None, ClipConfig(3.0, 2, "cf"), ClipConfig(3.0, 2, "pw"))
    papr = papr_samples(OFDM, cfgs, 300, seed=9)
    ser = ser_errors(OFDM, cfgs[2], GRID, 300, seed=9)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    monkeypatch.setattr(simulate, "_BLOCK_SAMPLES", block * OFDM.n_samples)
    assert papr_samples(OFDM, cfgs, 300, seed=9).tobytes() == papr.tobytes()
    assert ser_errors(OFDM, cfgs[2], GRID, 300, seed=9).tolist() == ser.tolist()


@pytest.mark.parametrize("ofdm, n_symbols", [
    (OFDM, 300),
    (OfdmConfig(1024, 8, 64), 6),
    (OfdmConfig(8192, 8, 4), 2),  # one row of 65536 samples, over the budget
], ids=["many_rows", "few_rows", "row_over_budget"])
def test_kernels_get_at_most_one_block(monkeypatch, ofdm, n_symbols):
    budget = max(simulate._BLOCK_SAMPLES, ofdm.n_samples)
    sizes = {"peak_suppress": [], "nearest_labels": []}

    def spy(name):
        kernel = getattr(simulate._kernels, name)

        def call(x, *args):
            sizes[name].append(x.size)
            return kernel(x, *args)
        monkeypatch.setattr(simulate._kernels, name, call)

    spy("peak_suppress")
    spy("nearest_labels")
    cfg = ClipConfig(3.0, 2, "pw")
    papr_samples(ofdm, cfg, n_symbols, seed=3)
    ser_errors(ofdm, cfg, [6.0, np.inf], n_symbols, seed=3)
    assert sizes["peak_suppress"] and sizes["nearest_labels"]
    assert max(sizes["peak_suppress"] + sizes["nearest_labels"]) <= budget


def test_one_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk run started a process pool")

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
    papr_samples(OFDM, ClipConfig(), 100, seed=1, workers=2)
    ser_errors(OFDM, ClipConfig(), GRID, simulate._CHUNK, seed=1, workers=2)


def test_grid_and_sequence_validation():
    with pytest.raises(ValueError):
        ser_errors(OFDM, None, GRID.reshape(2, 2), 10, seed=1)
    for snr in (np.nan, -np.inf):
        with pytest.raises(ValueError):
            ser_errors(OFDM, None, [10.0, snr], 10, seed=1)
    with pytest.raises(ValueError):
        papr_samples(OFDM, [], 10, seed=1)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            papr_samples(OFDM, None, 10, seed=1, workers=workers)
