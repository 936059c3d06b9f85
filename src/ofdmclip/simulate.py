"""Seeded Monte Carlo drivers for PAPR and SER experiments.

Reproducibility contract: every OFDM symbol ``i`` in a run draws its data
bits from the substream SeedSequence([seed, 0, i]) and its channel noise
from SeedSequence([seed, 1, i]).  Results therefore depend only on
(config, seed, symbol index) — never on chunking, worker count, or
completion order — and runs are bit-reproducible at any parallelism level.

One work unit, the block: ``_run_blocks`` cuts symbols 0..n_symbols into
blocks of whole rows, at most ``_BLOCK_SAMPLES`` time samples (or one row)
and at most ceil(n_symbols / workers) rows, so every worker gets a block.
``_block`` draws and synthesizes its rows once, every requested crest
config runs on them, and for SER each symbol's noise is drawn once and
reused at every SNR point.  The reuse is exact: the noise substream does
not depend on the SNR, so a run per SNR point would draw the same
Gaussians and only scale them differently.  Sizing blocks by samples keeps
every temporary block-sized, so peak memory grows with neither the run,
the configs nor N*L.  The block is the only memory bound: the crest steps
and kernels take it whole.  A serial run allocates two block buffers once
and every block writes its full-size complex rows into them through the
steps' ``out=`` (synthesis, each crest step, the SER receiver's noisy rows
and FFT), so no block frees memory the next one has to fault back in.

Measurements go through the checked rules: PAPR through ``metrics.papr_db``
and signal power through ``metrics._mean_power``, the rules ``awgn`` and
``threshold_from_ratio`` use.  A crest step that zeroes a whole symbol
therefore raises ValueError instead of giving NaN or a noiseless SER.

With ``workers=1`` or a one-block run every block runs in this process;
otherwise the blocks go to one process pool of at most one worker per
block.  Results are reassembled in index order.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import _kernels
from .crest import ClipConfig, _rcf_rows
from .metrics import _mean_power, papr_db
from .modulation import _integral, bits_to_labels, constellation
from .transform import OfdmConfig, analyze, extract_inband, synthesize

_BITS_STREAM = 0
_NOISE_STREAM = 1
_BLOCK_SAMPLES = 32768
_SEED_MAX = 2 ** 64


def _check_seed(seed: int) -> int:
    seed = _integral(seed, "seed")
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_run(n_symbols: int, seed: int, workers: int) -> None:
    """The run parameters every driver takes; ValueError names the bad one."""
    _integral(n_symbols, "n_symbols", 1)
    _check_seed(seed)
    _integral(workers, "workers", 1)


def _check_snr(snr_db) -> None:
    """NaN and -inf have no noise level; +inf is the no-noise mode."""
    snr = np.asarray(snr_db, dtype=float)
    if np.isnan(snr).any() or (snr == -np.inf).any():
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")


def substream(seed: int, stream_kind: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, stream kind, symbol index)."""
    return np.random.default_rng(
        np.random.SeedSequence([_check_seed(seed), stream_kind, _integral(index, "index")]))


def bits_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _BITS_STREAM, index)


def noise_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _NOISE_STREAM, index)


def _complex_noise(g: np.ndarray, sigma2, out=None) -> np.ndarray:
    """Circular complex Gaussian noise of variance ``sigma2`` from standard
    normals: real parts ``g[..., 0]``, imaginary parts ``g[..., 1]``; written
    to ``out`` if given."""
    noise = np.multiply(1j, g[..., 1], out=out)
    np.add(g[..., 0], noise, out=noise)
    return np.multiply(noise, np.sqrt(sigma2 / 2.0), out=noise)


def _draw_labels(ofdm: OfdmConfig, seed: int, lo: int, hi: int) -> np.ndarray:
    """Per-symbol random bits, packed MSB-first into constellation labels."""
    const = constellation(ofdm.mod_order)
    k = const.bits_per_symbol
    n_bits = ofdm.n_subcarriers * k
    bits = np.empty((hi - lo, n_bits), dtype=np.uint8)
    for i in range(hi - lo):
        bits[i] = bits_rng(seed, lo + i).integers(0, 2, n_bits, dtype=np.uint8)
    return bits_to_labels(bits.ravel(), k).reshape(hi - lo, ofdm.n_subcarriers)


def _crest(x, clip_cfg, ofdm, out=None):
    """The crest-reduced rows: ``x`` itself without crest reduction, else
    new rows or ``out``."""
    if clip_cfg is None or clip_cfg.iterations == 0:
        return x
    return _rcf_rows(x, clip_cfg, ofdm, out=out)


def _symbol_errors(x, labels, ofdm, snr_db, seed, lo, out=None) -> np.ndarray:
    """Symbol errors of the transmitted rows ``x`` (symbols lo, lo+1, ...)
    at every SNR point; each point's received rows and their spectrum go to
    ``out`` if given, which must not be ``x``."""
    axes = constellation(ofdm.mod_order).axes
    power = _mean_power(x, "SNR")[:, None]
    noisy = ~np.isposinf(snr_db)
    g = np.empty(x.shape + (2,))
    if noisy.any():
        for i in range(x.shape[0]):
            g[i] = noise_rng(seed, lo + i).standard_normal((x.shape[1], 2))
    errors = np.zeros(snr_db.size, dtype=np.int64)
    for k, snr in enumerate(snr_db):
        if noisy[k]:
            y = _complex_noise(g, power / 10.0 ** (snr / 10.0), out)
            spectrum = analyze(np.add(x, y, out=y), out=y)
        else:
            spectrum = analyze(x, out=out)
        bins = extract_inband(spectrum, ofdm.n_subcarriers)
        errors[k] = np.count_nonzero(_kernels.nearest_labels(bins, *axes) != labels.ravel())
    return errors


def _block(task, buffers=None):
    """One block, symbols lo..hi, drawn and synthesized once: the PAPR rows
    of every crest config, shape (configs, rows), or (with an SNR grid) the
    symbol errors of the one config at every point.

    ``buffers`` (two complex arrays of at least hi - lo rows) take every
    full-size complex result: the synthesized rows go to the first, each
    config's crest steps to the second, and the SER receiver to whichever
    the transmitted rows are not in.  Without them every step allocates."""
    ofdm, clip_cfgs, snr_db, seed, lo, hi = task
    synth, work = (None, None) if buffers is None else (b[:hi - lo] for b in buffers)
    labels = _draw_labels(ofdm, seed, lo, hi)
    x = synthesize(constellation(ofdm.mod_order).points[labels], ofdm.oversample, out=synth)
    if snr_db is None:
        return np.stack([papr_db(_crest(x, cfg, ofdm, work)) for cfg in clip_cfgs])
    tx = _crest(x, clip_cfgs[0], ofdm, work)
    return _symbol_errors(tx, labels, ofdm, snr_db, seed, lo, work if tx is x else x)


def _run_blocks(ofdm, clip_cfgs, snr_db, n_symbols: int, seed: int, workers: int):
    _check_run(n_symbols, seed, workers)
    rows = max(1, min(_BLOCK_SAMPLES // ofdm.n_samples, -(-n_symbols // workers)))
    tasks = [(ofdm, clip_cfgs, snr_db, seed, lo, min(lo + rows, n_symbols))
             for lo in range(0, n_symbols, rows)]
    if workers == 1 or len(tasks) == 1:
        buffers = np.empty((2, rows, ofdm.n_samples), dtype=np.complex128)
        return [_block(t, buffers) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_block, tasks))


def papr_samples(ofdm: OfdmConfig, clip_cfg, n_symbols: int,
                 seed: int, workers: int = 1) -> np.ndarray:
    """PAPR (dB) of ``n_symbols`` random OFDM symbols, in symbol order.

    ``clip_cfg`` is a ``ClipConfig``, or ``None`` for the unclipped signal,
    and gives a 1-D array.  A sequence of them gives one row per config: the
    symbols are drawn and synthesized once and every config runs on them,
    so each row is byte-equal to the single-config call.
    """
    many = isinstance(clip_cfg, (list, tuple))
    clip_cfgs = tuple(clip_cfg) if many else (clip_cfg,)
    if not clip_cfgs:
        raise ValueError("need at least one crest config")
    out = np.concatenate(_run_blocks(ofdm, clip_cfgs, None, n_symbols, seed, workers), axis=1)
    return out if many else out[0]


def ser_errors(ofdm: OfdmConfig, clip_cfg: ClipConfig | None, snr_db,
               n_symbols: int, seed: int, workers: int = 1):
    """Total erroneous constellation symbols over ``n_symbols`` OFDM symbols.

    A scalar ``snr_db`` gives an ``int``.  A 1-D grid gives an int64 array
    with one count per point, each equal to the scalar call at that point:
    clipping runs once per symbol and the symbol's noise is drawn once and
    scaled to every point.  An empty grid raises ValueError.
    """
    grid = np.asarray(snr_db, dtype=float)
    if grid.ndim > 1:
        raise ValueError(f"snr_db must be a scalar or a 1-D grid, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("need at least one SNR point")
    _check_snr(grid)
    counts = np.sum(_run_blocks(ofdm, (clip_cfg,), grid.reshape(-1), n_symbols, seed,
                                workers), axis=0)
    return int(counts[0]) if grid.ndim == 0 else counts
