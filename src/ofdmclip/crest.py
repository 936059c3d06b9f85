"""Crest-factor reduction: hard clipping, out-of-band filtering, peak
windowing, and the iterated clip-and-filter loop.

Strategies
----------
``none``  hard clip only (no spectral repair)
``cf``    clip, then zero all out-of-band bins (classic clip-and-filter)
``pw``    peak windowing: instead of clipping, multiply the signal by a
          smooth attenuation envelope built from window functions centered
          on every peak above the threshold

The clipping threshold A is set once from the *unclipped* signal's RMS as
``A = rms * 10**(clip_ratio_db / 20)`` and held fixed across iterations.

The step functions work along the last axis on one signal or a batch of
rows, with the level given once or per row.  Each public step is a boundary
check (a C-contiguous complex128 copy; NaN or inf samples raise ValueError),
then an in-place core (``_clip``, ``_oob_filter``, ``_kernels.peak_suppress``)
that checks nothing.  One clip loop, ``_clip_loop``, serves the Monte Carlo
drivers and ``rcf``: it checks its rows and levels once, in
``threshold_from_ratio``, then runs only the cores, in place in the rows it
is given, and after each pass yields the count of samples above A that the
pass's core found before it: ``_clip`` and ``_kernels.peak_suppress`` both
decide "above A" on the |x| they read and return that count, so no caller
decides it again.  The rows belong to the caller, so the loop yields no
reference to them and holds none once it is drained.  It takes no copy: the
drivers' ``simulate._block`` decides which rows each config works in and
drains the loop itself, and ``rcf`` gives it its own synthesized row and
builds its ClipReport from every pass, summing the counts.  A clip scales
by a/|x| <= 1, the OOB filter and a peak-window gain keep finite rows
finite, and a row a pass erases is caught by the PAPR or power measurement.

The peak window reads |x| from a float buffer whose rows carry -1 border
columns (``_border``), so the peak search needs no row-end bookkeeping.  A
``pw`` loop allocates that buffer once per block and crest config and writes
|x| into its interior once, before the first iteration; each peak window
rescales only the samples its windows reach and rewrites their magnitudes
there.  ``cf`` and ``none`` take their levels from the rows themselves and
a fresh ``np.abs`` inside each clip.  A block's
configs share its first look: the levels, once per clip ratio, and the first
peak search, once per clip ratio and window length (``_clip_loop``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .metrics import _mean_power, papr_db
from .modulation import _integral, _is_real
from .transform import (MAX_ROW_SAMPLES, OfdmConfig, _check_length, _check_oversample,
                        analyze, synthesize)
from .windows import WindowKind, as_window_kind, window

STRATEGIES = ("none", "cf", "pw")


def _clip_gain(clip_ratio_db) -> float:
    """The level gain 10**(clip_ratio_db/20), a Python float however the ratio
    is given; ValueError unless the ratio is a real number and not a bool (so
    not "3", None, 3+0j or an array), and the gain is finite and > 0."""
    try:
        gain = 10.0 ** (float(clip_ratio_db) / 20.0) if _is_real(clip_ratio_db) else math.nan
    except OverflowError:  # an int past the float range, or a gain past it
        gain = math.inf
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"clip_ratio_db must give a finite, positive gain "
                         f"10**(dB/20), got {clip_ratio_db!r}")
    return gain


def _check_window_len(window_len, what: str) -> int:
    # a peak window reaches at most 2 * n - 1 samples of a row of n; the cap is
    # 16 MiB of coefficients, the size of a longest row's complex samples
    cap = 2 * MAX_ROW_SAMPLES + 1
    if not 1 <= (length := _integral(window_len, what)) <= cap or length % 2 == 0:
        raise ValueError(f"{what} must be odd, >= 1 and at most {cap}, got {window_len}")
    return length


@dataclass(frozen=True)
class ClipConfig:
    """Crest-reduction parameters; the CLI reads its defaults from these.
    The ratio is kept as a Python float, so a config hashes and keys the
    levels its block shares (``_clip_loop``)."""

    clip_ratio_db: float = 3.0
    iterations: int = 5
    strategy: str = "cf"
    window: WindowKind = field(default_factory=lambda: WindowKind("hann"))
    window_len: int = 11

    def __post_init__(self):
        _clip_gain(self.clip_ratio_db)
        object.__setattr__(self, "clip_ratio_db", float(self.clip_ratio_db))
        _integral(self.iterations, "iterations", 0)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        _check_window_len(self.window_len, "window_len")
        object.__setattr__(self, "window", as_window_kind(self.window))


@dataclass
class ClipReport:
    """Observability record for one rcf() run.

    ``per_iteration_papr_db`` holds the PAPR after each of the config's
    iterations, and ``clipped_sample_count`` sums, over them, the samples
    above the level A before each, as counted by the clip or peak-window
    core that decided on them (``_clip_loop``).  An iteration the clip loop
    skips (every ``none`` pass after the first, and every ``pw`` pass from
    the first that finds no sample above A) repeats the last PAPR and
    counts 0.  That is exact: a clip leaves no sample above A, and a row
    with a sample above A always has a peak, its leftmost maximum, so such
    a pass would change no bit.
    With iterations=0 the array holds the unclipped PAPR once.
    """

    papr_before_db: float
    papr_after_db: float
    clipped_sample_count: int
    per_iteration_papr_db: np.ndarray


def threshold_from_ratio(signal: np.ndarray, clip_ratio_db: float) -> float | np.ndarray:
    """A = rms * 10**(clip_ratio_db/20) along the last axis: a float for one
    signal, one level per row for a batch; empty, all-zero or non-finite rows,
    a ratio that is not a real number or whose gain is not finite and
    positive, and a level that underflows to 0 raise ValueError."""
    a = np.sqrt(_mean_power(signal, "clipping threshold")) * _clip_gain(clip_ratio_db)
    if not (a > 0).all():
        raise ValueError(f"clipping level must be positive, got {a[~(a > 0)].flat[0]}")
    return float(a) if a.ndim == 0 else a


def _work_rows(signal, a):
    """``clip``'s and ``peak_window_suppress``'s boundary check: a work copy x and
    one level per row; a scalar, a level not > 0 or NaN or inf raise ValueError."""
    x = np.array(signal, dtype=np.complex128, order="C")
    if x.ndim == 0:
        raise ValueError("signal needs rows of samples, got a scalar")
    a = np.asarray(a, dtype=float)
    if not (a > 0).all():
        raise ValueError(f"clipping level must be positive, got {a[~(a > 0)].flat[0]}")
    # max propagates NaN and inf, and |x| of a finite sample may overflow to
    # inf, where a clip would scale it to 0: one reduction refuses them all
    if not np.isfinite(np.abs(x).max(initial=0.0)):
        raise ValueError("signal must be finite (no NaN or inf samples)")
    return x, np.broadcast_to(a, x.shape[:-1])


def _border(x: np.ndarray, window_len: int):
    """|x| as rows in the peak search's float buffer (rows, n + 2 * pad), with
    pad = max(1, min(window_len // 2, n - 1)) and its border columns -1, the
    row ends ``_kernels.peak_suppress`` reads: the buffer, and its (rows, n)
    interior, which is np.abs(x) bit for bit."""
    n = x.shape[-1]
    pad = max(1, min(window_len // 2, n - 1))
    mag = np.empty((math.prod(x.shape[:-1]), n + 2 * pad))
    mag[:, :pad] = mag[:, pad + n:] = -1.0  # only the border: np.abs fills the rest
    return mag, np.abs(x.reshape(len(mag), n), out=mag[:, pad:pad + n])


def clip(signal: np.ndarray, a) -> np.ndarray:
    """Hard-clip along the last axis: samples with |x| > a are scaled onto
    the circle |y| = a, phases untouched.  ``a`` is one level or one per row.

    np.abs decides which samples are over the level; only those, at the flat
    indices ``at``, are read, rescaled and written back.  A rescaled sample
    is nudged until np.abs certifies it <= a, so re-clipping is a bit-exact
    no-op.
    """
    x, a = _work_rows(signal, a)
    _clip(x, a)
    return x


def _clip(x: np.ndarray, a: np.ndarray) -> int:
    """``clip`` in place on ``x`` with the levels ``a``, one per row; no checks.
    |x| is taken here and freed before the rescale.  Returns the number of
    samples it found above their level."""
    mag = np.abs(x)
    at = np.flatnonzero(mag > a[..., None])
    over, mag = mag.reshape(-1)[at], None  # |x| of the samples above their level
    limit = a.reshape(-1)[at // x.shape[-1]]
    scale = limit / over
    flat = x.reshape(-1)
    w = flat[at] * scale
    bad = np.flatnonzero(np.abs(w) > limit)
    while bad.size:
        scale[bad] = np.nextafter(scale[bad], 0.0)
        w[bad] = flat[at[bad]] * scale[bad]
        bad = bad[np.abs(w[bad]) > limit[bad]]
    flat[at] = w
    return at.size


def oob_filter(signal: np.ndarray, n_subcarriers: int, oversample: int) -> np.ndarray:
    """Zero every out-of-band bin of each row; a linear, idempotent projection."""
    x = np.array(signal, dtype=np.complex128, order="C")
    if x.shape[-1:] != (n_subcarriers * oversample,):
        raise ValueError(f"signal rows must have {n_subcarriers} * {oversample} samples, "
                         f"got {x.shape or 'a scalar'}")
    _check_length(n_subcarriers, "n_subcarriers")
    _check_oversample(oversample)
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite (no NaN or inf samples)")
    return _oob_filter(x, n_subcarriers)


def _oob_filter(x: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """``oob_filter`` in place on finite rows ``x``, both FFTs in it; no checks."""
    spectrum = analyze(x, out=x)
    spectrum[..., n_subcarriers // 2: x.shape[-1] - n_subcarriers // 2] = 0.0
    return np.fft.ifft(spectrum, norm="ortho", axis=-1, out=spectrum)


def peak_window_suppress(signal: np.ndarray, a, kind, window_len: int) -> np.ndarray:
    """Attenuate peaks above ``a`` with window-shaped envelopes, along the
    last axis; ``a`` is one level or one per row.

    Local maxima of |x| above ``a`` (strictly greater than both neighbours;
    the first sample of a plateau; boundary samples need one neighbour) get
    a depth 1 - a/|x|.  The depths, weighted by the window centered on each
    peak, are summed into an envelope b which is capped at 1; the output is
    x * (1 - min(b, 1)).  An isolated peak therefore lands exactly on |y| = a,
    and for non-negative windows |y| <= |x| everywhere (flattop's negative
    lobes may locally amplify).  Samples whose envelope is 0 come back
    unchanged, bit for bit.
    """
    window_len = _check_window_len(window_len, "window length")
    x, a = _work_rows(signal, a)
    mag, _ = _border(x, window_len)
    _kernels.peak_suppress(x.reshape(mag.shape[0], x.shape[-1]), mag, a.reshape(-1),
                           _coefficients(as_window_kind(kind), window_len))
    return x


@functools.lru_cache(maxsize=16)
def _coefficients(kind: WindowKind, window_len: int) -> np.ndarray:
    """``window(kind, window_len)``, read-only and computed once per process
    rather than once per block and iteration (``np.kaiser`` takes ~0.3 ms)."""
    w = window(kind, window_len)
    w.flags.writeable = False
    return w


def _check_configs(ofdm, *clip_cfgs) -> None:
    """The config check at the boundary of ``rcf`` and the Monte Carlo drivers:
    ValueError unless ``ofdm`` is an OfdmConfig and each clip config a ClipConfig."""
    if not isinstance(ofdm, OfdmConfig):
        raise ValueError(f"ofdm must be an OfdmConfig, got {ofdm!r}")
    if bad := [cfg for cfg in clip_cfgs if not isinstance(cfg, ClipConfig)]:
        raise ValueError(f"clip_cfg must be a ClipConfig, got {bad[0]!r}")


def _clip_loop(x: np.ndarray, cfg: ClipConfig | None, ofdm: OfdmConfig, first: dict):
    """The clip loop in place in the C-contiguous rows ``x`` (rows, n), no
    pass for ``cfg`` None: yields ``above`` after each pass, the count of
    samples above A before the pass, as the pass's core (``_clip`` or
    ``_kernels.peak_suppress``) found them, with the levels A (rows,) held
    fixed: those in ``first``, or taken from the |x| it is given by
    threshold_from_ratio and its checks.  The caller owns the rows and the
    copy, if one is needed, and reads the rows itself: the drivers' ``_block``
    gives a copy only to a config that writes while a later one reads the
    synthesized rows, and ``rcf`` its own synthesized row.  Yielding only the
    count keeps the rows free of the loop: a caller that drains it holds them
    through no loop variable.

    ``first`` is the block's first look, shared by its configs and kept
    read-only: the levels by clip ratio, and the first pass's peak search
    (peaks, above) by clip ratio and window length.  The loop takes what is
    not there yet.  That is exact: by ``_block``'s copy rule every config's
    rows equal the synthesized rows when its loop starts, ``_border``'s
    interior is np.abs bit for bit, and the first search reads no window
    (flattop's included).  ``rcf`` gives its one loop an empty dict.

    A pass is a peak window (``pw``), or a clip followed, for ``cf``, by the
    OOB filter.  ``pw`` keeps |x| in a bordered buffer that each window
    updates; ``cf`` and ``none`` take a fresh |x| inside every clip
    (``_clip``) and hold none between passes.  A hard clip is a bit-exact no-op
    on its own output (see ``clip``), so ``none`` runs one pass whatever the
    iterations.  ``pw`` stops before yielding a pass that found no sample
    above A: it had no peak, so it changed no bit, and every later one would
    find the same |x| and window nothing again.  ``cf``'s OOB filter rewrites
    the low bits on every pass, so it runs every one."""
    if cfg is None or cfg.iterations == 0:
        return
    pw = cfg.strategy == "pw"
    # cf and none take the levels from x itself and hold no |x| between passes
    mag, inner = _border(x, cfg.window_len) if pw else (None, x)
    if (a := first.get(cfg.clip_ratio_db)) is None:
        a = first[cfg.clip_ratio_db] = threshold_from_ratio(inner, cfg.clip_ratio_db)
        a.flags.writeable = False
    if pw and (found := first.get((cfg.clip_ratio_db, cfg.window_len))) is None:
        found = first[cfg.clip_ratio_db, cfg.window_len] = _kernels._peaks(mag, a)
        found[0].flags.writeable = False
    for _ in range(1 if cfg.strategy == "none" else cfg.iterations):
        if pw:
            above = _kernels.peak_suppress(x, mag, a, _coefficients(cfg.window, cfg.window_len),
                                           found)
            found = None  # every later pass searches the rows this one windowed
            if not above:
                return
        else:
            above = _clip(x, a)
            if cfg.strategy == "cf":
                _oob_filter(x, ofdm.n_subcarriers)
        yield above


def rcf(symbol: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig):
    """Synthesize one frequency-domain symbol and run the clip loop on it.

    Returns (time signal, ClipReport).  The clip loop runs in place in the
    synthesized signal, so no copy is taken; with iterations=0 it passes
    through untouched.  NaN or inf bins, an all-zero symbol and configs of
    the wrong type raise ValueError.
    """
    _check_configs(ofdm, cfg)
    symbol = np.asarray(symbol, dtype=np.complex128)
    if symbol.shape != (ofdm.n_subcarriers,):
        raise ValueError(
            f"symbol must have {ofdm.n_subcarriers} bins, got shape {symbol.shape}")
    if not np.isfinite(symbol).all():
        raise ValueError("symbol must be finite (no NaN or inf bins)")
    x = synthesize(symbol, ofdm.oversample)
    papr = [papr_db(x)]
    count = 0
    for above in _clip_loop(x.reshape(1, -1), cfg, ofdm, {}):
        count += above
        papr.append(papr_db(x))
    # the passes the loop skipped repeat the last PAPR and clip nothing
    per_iter = np.full(max(cfg.iterations, 1), papr[-1])
    per_iter[:len(papr) - 1] = papr[1:]
    return x, ClipReport(papr[0], papr[-1], count, per_iter)
