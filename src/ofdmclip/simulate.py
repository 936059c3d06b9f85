"""Seeded Monte Carlo drivers for PAPR and SER experiments.

Reproducibility contract: every OFDM symbol ``i`` in a run draws its data
bits from the substream SeedSequence([seed, 0, i]) and its channel noise
from SeedSequence([seed, 1, i]).  Results therefore depend only on
(config, seed, symbol index) — never on chunking, worker count, or
completion order — and runs are bit-reproducible at any parallelism level.

The bit rule, stated on the raw PCG64 words that numpy's stability policy
(NEP 19) keeps fixed: bit j of symbol i is the top bit of byte j of the raw
64-bit outputs of PCG64(SeedSequence([seed, 0, i])), bytes taken low first
from each word, ceil(bits / 8) words a symbol.  That is what
``bits_rng(seed, i).integers(0, 2, n, dtype=np.uint8)`` gives, but
``Generator.integers`` is not under that policy.  ``_draw_bits`` computes
the words of a whole block in one pass: the SeedSequence hash over all rows
at once, then PCG64 by jump-ahead.  The noise is still one generator per
symbol (``noise_rng``).

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

import functools
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


# The bit substreams of a whole block at once: numpy's SeedSequence hash over
# rows, then PCG64 by jump-ahead (O'Neill, "PCG", HMC-CS-2014-0905).

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generate_state(8, uint32) word j holds bits [_STATE_BITS[j % 4], +32) of
# the PCG64 state (j < 4) or stream (j >= 4): generate_state(4, uint64) pairs
# the words low first, and PCG64 takes its two 64-bit words high first.
_STATE_BITS = (64, 96, 0, 32)


def _hash_chain(start: int, mult: int, n: int) -> list:
    """``start`` and the ``n`` products after it mod 2**32: the constants of
    successive hashmix calls, each xor-ing one and multiplying by the next."""
    chain = [start]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


@functools.cache
def _seed_steps(n_entropy: int) -> list:
    """(xor, multiply) uint32 constants of each vectorized SeedSequence step
    for ``n_entropy`` entropy words: the pool fill, each pool word mixed into
    the other three (zeros at its own place), each entropy word past the pool
    mixed into all four, and generate_state's 8 output words."""
    chain = _hash_chain(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, n_entropy - 4))
    steps, t = [(chain[0:4], chain[1:5])], 4
    for src in range(4):
        xor, mult = [0] * 4, [0] * 4
        for dst in (d for d in range(4) if d != src):
            xor[dst], mult[dst] = chain[t], chain[t + 1]
            t += 1
        steps.append((xor, mult))
    steps += [(chain[t:t + 4], chain[t + 1:t + 5]) for t in range(16, len(chain) - 1, 4)]
    out = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
    steps.append((out[0:8], out[1:9]))
    return [(np.array(x, dtype=np.uint32), np.array(m, dtype=np.uint32)) for x, m in steps]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    x = 0xCA01F9DD * x - 0x4973F715 * y
    return x ^ x >> 16


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(8, np.uint32) for each row of the
    uint32 ``entropy``: numpy's hash with every step taken over all rows."""
    rows, n = entropy.shape
    fill, *mixes, out = _seed_steps(n)
    pool = np.zeros((rows, 4), dtype=np.uint32)
    pool[:, :min(n, 4)] = entropy[:, :4]
    pool = _hashmix(pool, *fill)
    for src in range(4):
        word = pool[:, src].copy()
        pool = _mix(pool, _hashmix(word[:, None], *mixes[src]))
        pool[:, src] = word
    for src in range(4, n):
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], *mixes[src]))
    return _hashmix(np.tile(pool, 2), *out)


def _digits(values) -> np.ndarray:
    """(len(values), 8) float64: the 16-bit digits, low first, of 128-bit ints."""
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u2").reshape(-1, 8).astype(np.float64)


@functools.cache
def _pcg64_jumps(n_words: int) -> np.ndarray:
    """The first ``n_words`` output states of a PCG64 as a (17, 4 * n_words)
    float64 map of its seed words.

    Seeding with state s and stream q (increment c = 2q + 1) steps the LCG
    twice, to (s + c) * M + c, and output k >= 1 steps it once more, so it
    reads M**(k+1) * s + (1 + M + ... + M**(k+1)) * c mod 2**128.  That is
    linear in the 16 16-bit halves of the seed words plus a constant row, so
    one matmul gives each state's four 32-bit limbs before carries.  Every
    term is below 2**48 and every sum below 17 * 2**48 < 2**53: float64 is
    exact."""
    mults, sums, a, c = [], [], _PCG64_MULT, 1 + _PCG64_MULT
    for _ in range(n_words):
        a = a * _PCG64_MULT & _MASK128
        c = c + a & _MASK128
        mults.append(a)
        sums.append(c)
    state, stream = _digits(mults), _digits([2 * v & _MASK128 for v in sums])
    rows = []
    for j in range(8):
        digits = state if j < 4 else stream
        for shift in (_STATE_BITS[j % 4] // 16, _STATE_BITS[j % 4] // 16 + 1):
            row = np.zeros_like(digits)
            row[:, shift:] = digits[:, :8 - shift]
            rows.append(row)
    rows.append(_digits(sums))
    digits = np.stack(rows)
    return (digits[..., 0::2] + 65536.0 * digits[..., 1::2]).transpose(0, 2, 1).reshape(17, -1)


def _pcg64_raw(seed_words: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` raw outputs of PCG64(SeedSequence) for each row
    of generate_state(8, np.uint32) ``seed_words``."""
    halves = np.ones((seed_words.shape[0], 17))
    halves[:, 0:16:2] = seed_words & 0xFFFF
    halves[:, 1:16:2] = seed_words >> 16
    limbs = (halves @ _pcg64_jumps(n_words)).astype(np.uint64).reshape(-1, 4, n_words)
    # the state mod 2**128 in 64-bit halves; the high half takes the carry
    # out of limbs 0 and 1, which may exceed 32 bits before carries
    lo = limbs[:, 0] + (limbs[:, 1] << 32)
    hi = ((limbs[:, 1] + (limbs[:, 0] >> 32)) >> 32) + limbs[:, 2] + (limbs[:, 3] << 32)
    # XSL-RR: the halves xor-ed, rotated right by the state's top 6 bits
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _draw_bits(seed: int, lo: int, hi: int, n_bits: int) -> np.ndarray:
    """(hi - lo, n_bits) uint8: row i - lo is the bit draw of symbol i, the top
    bits of the bytes of bits_rng(seed, i)'s raw words, low byte first."""
    bits = np.empty((hi - lo, n_bits), dtype=np.uint8)
    # SeedSequence splits an int into 32-bit words, low first: a seed or an
    # index is one word below 2**32 and two from there on
    head = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else []) + [_BITS_STREAM]
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if a >= b:
            continue
        index = np.arange(a, b, dtype=np.uint64)
        words = [index & _MASK32] + ([index >> 32] if a >> 32 else [])
        entropy = np.empty((b - a, len(head) + len(words)), dtype=np.uint32)
        entropy[:, :len(head)] = head
        entropy[:, len(head):] = np.stack(words, axis=1)
        raw = _pcg64_raw(_seed_words(entropy), -(-n_bits // 8))
        bits[a - lo:b - lo] = raw.astype("<u8", copy=False).view(np.uint8)[:, :n_bits] >> 7
    return bits


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
    bits = _draw_bits(seed, lo, hi, ofdm.n_subcarriers * k)
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
