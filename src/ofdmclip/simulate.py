"""Seeded Monte Carlo drivers for PAPR and SER experiments.

Reproducibility contract: every OFDM symbol ``i`` in a run draws its data
bits from the substream SeedSequence([seed, 0, i]) and its channel noise
from SeedSequence([seed, 1, i]).  Results therefore depend only on
(config, seed, symbol index) — never on chunking, worker count, or
completion order — and runs are bit-reproducible at any parallelism level.

Work is processed in fixed-size chunks; with ``workers > 1`` chunks are
farmed out to a process pool and reassembled in index order.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import _kernels
from .crest import ClipConfig, _rcf_rows
from .modulation import constellation
from .transform import OfdmConfig, extract_inband, synthesize

_BITS_STREAM = 0
_NOISE_STREAM = 1
_CHUNK = 1024
_SEED_MAX = 2 ** 64


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_snr(snr_db: float) -> None:
    """NaN and -inf have no noise level; +inf is the no-noise mode."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")


def substream(seed: int, stream_kind: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, stream kind, symbol index)."""
    return np.random.default_rng(
        np.random.SeedSequence([_check_seed(seed), stream_kind, int(index)]))


def bits_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _BITS_STREAM, index)


def noise_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _NOISE_STREAM, index)


def _draw_labels(ofdm: OfdmConfig, seed: int, lo: int, hi: int) -> np.ndarray:
    """Per-symbol random bits, packed MSB-first into constellation labels."""
    const = constellation(ofdm.mod_order)
    k = const.bits_per_symbol
    n_bits = ofdm.n_subcarriers * k
    bits = np.empty((hi - lo, n_bits), dtype=np.uint8)
    for i in range(hi - lo):
        bits[i] = bits_rng(seed, lo + i).integers(0, 2, n_bits, dtype=np.uint8)
    weights = 1 << np.arange(k - 1, -1, -1)
    return (bits.reshape(hi - lo, ofdm.n_subcarriers, k) @ weights).astype(np.int64)


def _synthesize_chunk(ofdm, clip_cfg, seed, lo, hi):
    labels = _draw_labels(ofdm, seed, lo, hi)
    x = synthesize(constellation(ofdm.mod_order).points[labels], ofdm.oversample)
    if clip_cfg is not None and clip_cfg.iterations > 0:
        x, _, _ = _rcf_rows(x, clip_cfg, ofdm)
    return labels, x


def _papr_chunk(task):
    ofdm, clip_cfg, seed, lo, hi = task
    _, x = _synthesize_chunk(ofdm, clip_cfg, seed, lo, hi)
    return _kernels.papr_db_rows(x)


def _add_noise_rows(x, snr_db, seed, lo):
    if np.isposinf(snr_db):
        return x
    sigma2 = np.mean(np.abs(x) ** 2, axis=1) / 10.0 ** (snr_db / 10.0)
    y = np.empty_like(x)
    for i in range(x.shape[0]):
        g = noise_rng(seed, lo + i).standard_normal((x.shape[1], 2))
        y[i] = x[i] + (g[:, 0] + 1j * g[:, 1]) * np.sqrt(sigma2[i] / 2.0)
    return y


def _ser_chunk(task):
    ofdm, clip_cfg, snr_db, seed, lo, hi = task
    labels, x = _synthesize_chunk(ofdm, clip_cfg, seed, lo, hi)
    y = _add_noise_rows(x, snr_db, seed, lo)
    bins = extract_inband(np.fft.fft(y, norm="ortho", axis=-1), ofdm.n_subcarriers)
    rx = _kernels.nearest_labels(bins.ravel(), constellation(ofdm.mod_order).points)
    return int((rx.reshape(labels.shape) != labels).sum())


def _run_chunks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _chunk_bounds(n: int):
    return [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def papr_samples(ofdm: OfdmConfig, clip_cfg: ClipConfig | None, n_symbols: int,
                 seed: int, workers: int = 1) -> np.ndarray:
    """PAPR (dB) of ``n_symbols`` random OFDM symbols, in symbol order."""
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be >= 1, got {n_symbols}")
    _check_seed(seed)
    tasks = [(ofdm, clip_cfg, seed, lo, hi) for lo, hi in _chunk_bounds(n_symbols)]
    return np.concatenate(_run_chunks(_papr_chunk, tasks, workers))


def ser_errors(ofdm: OfdmConfig, clip_cfg: ClipConfig | None, snr_db: float,
               n_symbols: int, seed: int, workers: int = 1) -> int:
    """Total erroneous constellation symbols over ``n_symbols`` OFDM symbols."""
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be >= 1, got {n_symbols}")
    _check_seed(seed)
    _check_snr(snr_db)
    tasks = [(ofdm, clip_cfg, snr_db, seed, lo, hi) for lo, hi in _chunk_bounds(n_symbols)]
    return sum(_run_chunks(_ser_chunk, tasks, workers))
