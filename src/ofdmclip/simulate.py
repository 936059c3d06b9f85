"""Seeded Monte Carlo drivers for PAPR and SER experiments.

RNG contract v2.  Stream s (0 = data bits, 1 = channel noise) of OFDM
symbol i under ``seed`` is Philox4x64-10 (Salmon et al., SC11) with key
(seed, s) and counters (w, i, 0, 0), w = 1, 2, ...: the raw words of
``np.random.Philox(key=seed | s << 64, counter=i << 64)``, the reference
generator ``substream`` builds for tests.  ``_words`` computes many symbols.
Bit j of symbol i is bit j % 64, low bit first, of bits word j // 64.  With
u = (word >> 11) * 2**-53 on its noise words, complex normal j is
r*cos(t) + 1j*(r*sin(t)), r = sqrt(-2*log1p(-u[2j])), t = 2*pi*u[2j+1], so
E|z|^2 = 2.  The SER receiver adds sqrt(P_i / 10**(snr/10) / 2) * z to the N
in-band bins of row i's unitary FFT, P_i the row's mean power: exact in
distribution, as a unitary FFT keeps white noise's variance per bin.
Results depend only on (config, seed, symbol index), never on blocks or
workers.  Bytes are reproducible per platform; the README lists the numpy
kernels that may differ in the last bit with the CPU's SIMD dispatch.

One work unit, the block: ``_run_blocks`` cuts symbols into blocks of whole
rows, at most ``_BLOCK_SAMPLES`` samples (or one row) and ceil(n_symbols /
workers) rows, ``workers`` capped at the usable CPUs.  The data bits are
drawn once per span of whole blocks (``_span_blocks``), so one Philox pass
serves ~21 blocks with no temporary larger than a block; only its words
outlive it, and each block labels its own rows from them (``_labels``).
``_block`` takes its rows' labels and synthesizes them once.  Then one
loop runs each crest config, draining its clip loop, and measures it before
the next: its PAPR, or for SER its mean powers and in-band bins, from one
FFT.  The configs share the block's first look, its levels and first peak
search.  The clip loop and the receiver's FFT both write in place, in rows
chosen by one rule: the last config, and for PAPR a config that writes
nothing, get the synthesized rows themselves; every other config gets one
copy.  So a one-config block holds its rows once.  A SER block then frees
its rows and first look, draws its noise once, and tests every config's
in-band bins plus each SNR point's scaling of that one draw against the
sent levels, with no demap.  Every temporary is at most block-sized,
whatever the run, the configs or N*L; a SER block keeps each config's
in-band bins, 1/L of a block each, until its test.  The driver's fold
takes each block's result as it comes: ``papr_samples`` writes it into one
preallocated result, ``ser_errors`` adds its counts.  Serial runs (one
worker, one CPU, one block or no ``os.fork``) go block by block in this
process; otherwise the blocks are cut into one contiguous share per worker,
each run in a child forked for it (``_fork``, loaded only then), which
folds its share and sends the result pickled through a pipe, folded in
share order.  No run imports ``concurrent.futures`` or
``multiprocessing``.  Before either,
``_run_blocks`` frees one three-block allocation, which raises glibc's
malloc thresholds for the process and the children it forks, so no block
frees memory the next one faults back in.

Measurements go through the checked rules, ``metrics.papr_db`` and
``metrics._mean_power``, so a crest step that zeroes a whole symbol raises
ValueError instead of giving NaN or a noiseless SER.
"""
from __future__ import annotations

import os

import numpy as np

from . import _kernels
from .crest import _check_configs, _clip_loop
from .metrics import _mean_power, papr_db
from .modulation import _integral, bits_to_labels, constellation
from .transform import OfdmConfig, analyze, extract_inband, synthesize

_BITS_STREAM = 0
_NOISE_STREAM = 1
_BLOCK_SAMPLES = 32768
_U64_END = 2 ** 64


def _check_u64(value, name: str) -> int:
    value = _integral(value, name)
    if not 0 <= value < _U64_END:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def _check_run(n_symbols: int, seed: int, workers: int) -> None:
    """The run parameters every driver takes; ValueError names the bad one."""
    _integral(n_symbols, "n_symbols", 1)
    _check_u64(seed, "seed")
    _integral(workers, "workers", 1)


def _check_snr(snr_db) -> None:
    """+inf is the no-noise mode.  Below -3000 dB (NaN and -inf included) a
    row's noise power, 10**(-snr/10) times its power (at most 2.4), may
    overflow; above +3000 dB, 10**(snr/10) itself overflows past +3082 dB."""
    snr = np.asarray(snr_db, dtype=float)
    if not ((snr >= -3000.0) & ((snr <= 3000.0) | np.isposinf(snr))).all():
        raise ValueError(f"snr_db must be at least -3000 dB and at most +3000 dB, "
                         f"or +inf, got {snr_db}")


def substream(seed: int, stream_kind: int, index: int) -> np.random.Generator:
    """numpy's generator for one (seed, stream kind, symbol index): the
    reference the engine's draws are tested against; the engine never
    builds one."""
    key = _check_u64(seed, "seed") | stream_kind << 64
    return np.random.Generator(
        np.random.Philox(key=key, counter=_check_u64(index, "index") << 64))


def bits_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _BITS_STREAM, index)


def noise_rng(seed: int, index: int) -> np.random.Generator:
    return substream(seed, _NOISE_STREAM, index)


# Philox4x64-10 over a whole block, counter words as pairs a = (c0, c2) and
# b = (c1, c3): a round sets a = (hi(M1*c2) ^ c1 ^ k0, hi(M0*c0) ^ c3 ^ k1) and
# b = (lo(M1*c2), lo(M0*c0)), the 128-bit products taken from 32-bit halves.
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MULT_LO, _MULT_HI = _PHILOX_MULT & _LOW32, _PHILOX_MULT >> _32


def _mulhilo(x):
    """(high, low) 64-bit halves of ``_PHILOX_MULT * x``."""
    x_lo, x_hi = x & _LOW32, x >> _32
    t = _MULT_HI * x_lo + (_MULT_LO * x_lo >> _32)
    u = _MULT_LO * x_hi + (t & _LOW32)
    return _MULT_HI * x_hi + (t >> _32) + (u >> _32), _PHILOX_MULT * x


def _words(seed: int, kind: int, lo: int, hi: int, n: int) -> np.ndarray:
    """(hi - lo, n) little-endian uint64, C-contiguous: the first ``n`` raw words
    of stream ``kind`` of symbols lo..hi, ``substream(...).random_raw(n)``."""
    blocks = -(-n // 4)
    a = np.zeros((2, hi - lo, blocks), dtype=np.uint64)
    b = np.zeros_like(a)
    a[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    b[0] = (np.arange(hi - lo, dtype=np.uint64) + np.uint64(lo))[:, None]
    key = np.array([int(seed), kind], dtype=np.uint64)[:, None, None]
    for _ in range(10):
        high, low = _mulhilo(a)
        a, b = high[::-1] ^ b ^ key, low[::-1]
        key = key + _PHILOX_BUMP
    words = np.stack([a[0], b[0], a[1], b[1]], axis=-1).reshape(hi - lo, -1)[:, :n]
    return np.ascontiguousarray(words, "<u8")


def _normals(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """(hi - lo, n) complex: Box-Muller on the noise stream of symbols lo..hi,
    complex normal j from words 2j and 2j + 1, E|z|^2 = 2."""
    u = (_words(seed, _NOISE_STREAM, lo, hi, 2 * n) >> np.uint64(11)) * 2.0 ** -53
    r = np.sqrt(-2 * np.log1p(-u[:, 0::2]))
    t = 2 * np.pi * u[:, 1::2]
    z = np.empty(r.shape, dtype=np.complex128)
    z.real = r * np.cos(t)
    z.imag = r * np.sin(t)
    return z


def _row_bits(ofdm: OfdmConfig) -> int:
    """A symbol's data bits, N*k, in ceil(N*k / 64) words."""
    return ofdm.n_subcarriers * constellation(ofdm.mod_order).bits_per_symbol


def _labels(ofdm: OfdmConfig, words: np.ndarray) -> np.ndarray:
    """The labels of the rows whose bit words (``_words``) are ``words``."""
    k = constellation(ofdm.mod_order).bits_per_symbol
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=_row_bits(ofdm), bitorder="little")
    return bits_to_labels(bits.ravel(), k).reshape(len(words), ofdm.n_subcarriers)


def _error_masks(bins, labels, axes, z, scales):
    """For each noise scale s (rows, 1) in ``scales``, the (rows, n) mask of
    the bins of ``bins + s * z`` that some axis puts at or below the decision
    bound under their sent level in ``labels``, or above the one over it."""
    edges = []
    for levels, shift in zip(axes, (axes[1].size.bit_length() - 1, 0)):  # Q bits, 0
        codes, bounds = _kernels.decision_bounds(levels)
        rank = np.argsort(codes)[(labels >> shift) & (levels.size - 1)]
        between = np.concatenate(([-np.inf], bounds, [np.inf]))
        edges.append((between[rank], between[rank + 1]))
    rx, past = np.empty(bins.shape), np.empty(bins.shape, dtype=bool)
    for s in scales:
        err = np.zeros(bins.shape, dtype=bool)
        for (low, high), b, w in zip(edges, (bins.real, bins.imag), (z.real, z.imag)):
            np.add(np.multiply(s, w, out=rx), b, out=rx)
            err |= np.less_equal(rx, low, out=past)
            err |= np.greater(rx, high, out=past)
        yield err


def _symbol_errors(power, bins, labels, ofdm, snr_db, z) -> np.ndarray:
    """Symbol errors at every SNR point of the rows of mean powers ``power``
    (rows, 1) and in-band bins ``bins``: each point's error test on the bins
    plus that point's scaling of the symbols' noise ``z``."""
    scales = (np.sqrt(power / 10.0 ** (snr / 10.0) / 2.0) for snr in snr_db)
    masks = _error_masks(bins, labels, constellation(ofdm.mod_order).axes, z, scales)
    return np.array([np.count_nonzero(m) for m in masks], dtype=np.int64)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where there is
    one; 1 without ``os.fork``, so every run stays in this process."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _span_blocks(ofdm: OfdmConfig) -> int:
    """Blocks per Philox pass over the data bits: the most whose bits, a byte
    each, would fit in one block's complex rows (16*N*L bytes a row); at
    least one.  The span keeps only the pass's words, N*k/8 bytes a row."""
    return max(1, 16 * ofdm.n_samples // _row_bits(ofdm))


def _block(ofdm, clip_cfgs, snr_db, seed, lo, labels):
    """One block, the symbols lo, lo+1, ... with constellation ``labels``,
    synthesized once.  Each crest config's clip loop is drained here and the
    config measured before the next: one row per config, of its PAPR, shape
    (configs, rows), or of its symbol errors at every point, shape (configs,
    points).  A config works in a copy of the synthesized rows only when it
    writes them (a clip pass, or the SER receiver's FFT) and a later config
    reads them.  So every config's rows equal the synthesized rows when its
    clip loop starts, and the configs share one first look, ``first``
    (``crest._clip_loop``).  With an SNR grid each config keeps only its
    mean powers and in-band bins; the rows and the first look are freed
    before the block's noise is drawn, once, and every kept config tested
    against it; a +inf point scales the noise by 0.  At 32768 samples one
    ``cf`` config's tracemalloc peak is 1.7 blocks of complex rows, for PAPR
    and for SER at 8 points alike."""
    x = synthesize(constellation(ofdm.mod_order).points[labels], ofdm.oversample)
    out, first = [], {}
    for k, cfg in enumerate(clip_cfgs, 1):
        # by position, not by config, as one config may repeat
        copy = k < len(clip_cfgs) and (snr_db is not None or cfg is not None and cfg.iterations > 0)
        tx = x.copy() if copy else x
        for _ in _clip_loop(tx, cfg, ofdm, first):
            pass
        # for SER, the receiver's FFT in place: only the powers and in-band bins are kept
        out.append(papr_db(tx) if snr_db is None else (_mean_power(tx, "SNR")[:, None],
                   extract_inband(analyze(tx, out=tx), ofdm.n_subcarriers)))
        del tx  # freed before the next config's copy
    if snr_db is None:
        return np.stack(out)
    del x, first  # no rows are alive while the noise is drawn and tested
    z = _normals(seed, lo, lo + len(labels), ofdm.n_subcarriers)
    return np.stack([_symbol_errors(*kept, labels, ofdm, snr_db, z) for kept in out])


def _run_blocks(ofdm, clip_cfg, snr_db, n_symbols: int, seed: int, workers: int,
                start, fold):
    """The run's result and whether the caller asked for a config axis.
    Symbols lo..hi start from ``start((configs, hi - lo))`` and take each
    block's result by ``out = fold(out, at, part)``, ``at`` its first symbol
    less lo; forked shares are folded in the same way, in share order.
    ``clip_cfg`` follows the drivers' one rule: a list or tuple holds the
    configs and asks for the axis; one config or ``None`` does not."""
    many = isinstance(clip_cfg, (list, tuple))
    clip_cfgs = tuple(clip_cfg) if many else (clip_cfg,)
    if not clip_cfgs:
        raise ValueError("clip_cfg must hold at least one crest config")
    _check_configs(ofdm, *(cfg for cfg in clip_cfgs if cfg is not None))
    _check_run(n_symbols, seed, workers)
    # blocks are cut for the children that run them, at most one per CPU
    workers = min(workers, _cpus())
    rows = max(1, min(_BLOCK_SAMPLES // ofdm.n_samples, -(-n_symbols // workers)))
    # Freeing an mmapped chunk raises glibc's mmap threshold to its size and
    # the trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD).  This
    # freed chunk of three blocks lifts both over a block's temporaries, so
    # they stay on the heap instead of being mapped and faulted in again on
    # every block; forked children inherit the raised thresholds.  A window
    # sweep's block peaks at 2047 KiB of arrays at 32768 samples, at the
    # 2 MiB trim threshold that two blocks would give.
    np.empty((3, rows, ofdm.n_samples), dtype=np.complex128)

    span = rows * _span_blocks(ofdm)

    def run(lo, hi):
        out = start((len(clip_cfgs), hi - lo))
        for s in range(lo, hi, span):
            words = _words(seed, _BITS_STREAM, s, min(s + span, hi), -(-_row_bits(ofdm) // 64))
            for b in range(s, s + len(words), rows):
                labels = _labels(ofdm, words[b - s:b - s + rows])
                out = fold(out, b - lo, _block(ofdm, clip_cfgs, snr_db, seed, b, labels))
        return out

    blocks = -(-n_symbols // rows)
    n = min(workers, blocks)
    if n == 1:
        return run(0, n_symbols), many
    from . import _fork  # only a parallel run loads the fork runner
    cuts = [min(rows * (blocks * k // n), n_symbols) for k in range(n + 1)]
    out = start((len(clip_cfgs), n_symbols))
    return _fork.fork_shares(run, list(zip(cuts, cuts[1:])), fold, out), many


def _place(out, at, part):
    """``papr_samples``' fold: a block's PAPR rows into the result at ``at``."""
    out[:, at:at + part.shape[1]] = part
    return out


def papr_samples(ofdm: OfdmConfig, clip_cfg, n_symbols: int,
                 seed: int, workers: int = 1) -> np.ndarray:
    """PAPR (dB) of ``n_symbols`` random OFDM symbols, in symbol order.

    ``clip_cfg`` is a ``ClipConfig``, or ``None`` for the unclipped signal,
    and gives a 1-D array.  A list or tuple of them gives one row per config:
    the symbols are drawn and synthesized once and every config runs on them,
    so each row is byte-equal to the single-config call.
    """
    out, many = _run_blocks(ofdm, clip_cfg, None, n_symbols, seed, workers, np.empty, _place)
    return out if many else out[0]


def ser_errors(ofdm: OfdmConfig, clip_cfg, snr_db, n_symbols: int, seed: int,
               workers: int = 1):
    """Total erroneous constellation symbols over ``n_symbols`` OFDM symbols.

    A scalar ``snr_db`` gives an ``int``.  A 1-D grid gives an int64 array
    with one count per point, each equal to the scalar call at that point:
    clipping and the receiver's FFT run once per symbol, and the symbol's
    in-band noise is drawn once and scaled to every point.  An empty grid
    raises ValueError.  ``clip_cfg`` is read as ``papr_samples`` reads it: a
    list or tuple of configs adds a leading config axis, each row equal to
    the single-config call, and the symbols and their noise are drawn once
    for all of them.
    """
    grid = np.asarray(snr_db, dtype=float)
    if grid.ndim > 1:
        raise ValueError(f"snr_db must be a scalar or a 1-D grid, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("need at least one SNR point")
    _check_snr(grid)
    counts, many = _run_blocks(ofdm, clip_cfg, grid.reshape(-1), n_symbols, seed, workers,
                               lambda shape: 0, lambda total, at, part: total + part)
    counts = counts.reshape(-1, *grid.shape)
    return counts if many else counts[0] if grid.ndim else int(counts[0])
