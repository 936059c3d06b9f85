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
then an in-place core (``_clip``, ``_oob_filter``, ``_peak_window``) that
checks nothing.  The clip loop checks its rows and levels once, in
``threshold_from_ratio``, then ``_crest_step`` runs only the cores on one work
copy per crest config: a clip scales by a/|x| <= 1, the OOB filter and a
peak-window gain keep finite rows finite.  A row a step erases is caught
after the loop, by the PAPR or power measurement.

The peak window reads |x| from a float buffer whose rows carry -1 border
columns (``_border``), so the peak search needs no row-end bookkeeping.  A
``pw`` loop allocates that buffer once per block and crest config and writes
|x| into its interior once, before the first iteration; each peak window
rescales only the samples its windows reach and rewrites their magnitudes
there.  The level comes from the same magnitudes, and ``cf`` and ``none``
clip first with the plain ``np.abs`` the level was taken from.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .metrics import _mean_power, papr_db
from .modulation import _integral
from .transform import OfdmConfig, _check_length, _check_oversample, analyze, synthesize
from .windows import WindowKind, as_window_kind, window

STRATEGIES = ("none", "cf", "pw")


def _clip_gain(clip_ratio_db) -> float:
    """The level gain 10**(clip_ratio_db/20); ValueError unless it is finite and > 0."""
    try:
        with np.errstate(over="ignore"):
            gain = 10.0 ** (clip_ratio_db / 20.0)
    except OverflowError:
        gain = np.inf
    if not (np.isfinite(gain) and gain > 0.0):
        raise ValueError(f"clip_ratio_db must give a finite, positive gain "
                         f"10**(dB/20), got {clip_ratio_db}")
    return gain


def _check_window_len(window_len, what: str) -> None:
    if _integral(window_len, what) < 1 or window_len % 2 == 0:
        raise ValueError(f"{what} must be odd and >= 1, got {window_len}")


@dataclass(frozen=True)
class ClipConfig:
    """Crest-reduction parameters; the CLI reads its defaults from these."""

    clip_ratio_db: float = 3.0
    iterations: int = 5
    strategy: str = "cf"
    window: WindowKind = field(default_factory=lambda: WindowKind("hann"))
    window_len: int = 11

    def __post_init__(self):
        _clip_gain(self.clip_ratio_db)
        _integral(self.iterations, "iterations", 0)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        _check_window_len(self.window_len, "window_len")
        object.__setattr__(self, "window", as_window_kind(self.window))


@dataclass
class ClipReport:
    """Observability record for one rcf() run."""

    papr_before_db: float
    papr_after_db: float
    clipped_sample_count: int
    per_iteration_papr_db: np.ndarray


def threshold_from_ratio(signal: np.ndarray, clip_ratio_db: float) -> float | np.ndarray:
    """A = rms * 10**(clip_ratio_db/20) along the last axis: a float for one
    signal, one level per row for a batch; empty, all-zero or non-finite rows,
    a ratio whose gain is not finite and positive and a level that underflows
    to 0 raise ValueError."""
    a = np.sqrt(_mean_power(signal, "clipping threshold")) * _clip_gain(clip_ratio_db)
    if not (a > 0).all():
        raise ValueError(f"clipping level must be positive, got {a[~(a > 0)].flat[0]}")
    return float(a) if a.ndim == 0 else a


def _work_rows(signal, a, window_len=None):
    """``clip``'s and ``peak_window_suppress``'s boundary check: a work copy x, |x|
    and levels (..., 1); a scalar, a level not > 0 or NaN or inf raise ValueError.
    Given a ``window_len``, |x| is the interior of a bordered buffer (``_border``)."""
    x = np.array(signal, dtype=np.complex128, order="C")
    if x.ndim == 0:
        raise ValueError("signal needs rows of samples, got a scalar")
    mag = np.abs(x) if window_len is None else _abs_into(x, _border(x, window_len))
    a = np.asarray(a, dtype=float)
    if not (a > 0).all():
        raise ValueError(f"clipping level must be positive, got {a[~(a > 0)].flat[0]}")
    # max propagates NaN and inf, so one reduction checks every sample
    if not np.isfinite(mag.max(initial=0.0)):
        raise ValueError("signal must be finite (no NaN or inf samples)")
    return x, mag, np.broadcast_to(a, x.shape[:-1])[..., None]


def _border(x: np.ndarray, window_len: int) -> np.ndarray:
    """The peak search's float buffer for |x| as rows: (rows, n + 2 * pad) with
    pad = max(1, min(window_len // 2, n - 1)), its border columns -1, the row
    ends ``_kernels.peak_suppress`` reads."""
    n = x.shape[-1]
    pad = max(1, min(window_len // 2, n - 1))
    return np.full((math.prod(x.shape[:-1]), n + 2 * pad), -1.0)


def _interior(mag: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) interior of the bordered buffer ``mag``, or all of a plain
    (rows, n) one."""
    pad = (mag.shape[1] - n) // 2
    return mag[:, pad:pad + n]


def _abs_into(x: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """np.abs(x) into the interior of the bordered buffer ``mag``; returns mag."""
    n = x.shape[-1]
    np.abs(x.reshape(mag.shape[0], n), out=_interior(mag, n))
    return mag


def clip(signal: np.ndarray, a) -> np.ndarray:
    """Hard-clip along the last axis: samples with |x| > a are scaled onto
    the circle |y| = a, phases untouched.  ``a`` is one level or one per row.

    np.abs decides which samples are over the level; only those, at the flat
    indices ``at``, are read, rescaled and written back.  A rescaled sample
    is nudged until np.abs certifies it <= a, so re-clipping is a bit-exact
    no-op.
    """
    return _clip(*_work_rows(signal, a))


def _clip(x: np.ndarray, mag: np.ndarray, level: np.ndarray) -> np.ndarray:
    """``clip`` in place on ``x``, given mag = |x| and levels (..., 1); no checks."""
    at = np.flatnonzero(mag > level)
    if at.size:
        limit = level.reshape(-1)[at // x.shape[-1]]
        flat = x.reshape(-1)
        xo = flat[at]
        scale = limit / mag.reshape(-1)[at]
        w = xo * scale
        bad = np.flatnonzero(np.abs(w) > limit)
        while bad.size:
            scale[bad] = np.nextafter(scale[bad], 0.0)
            w[bad] = xo[bad] * scale[bad]
            bad = bad[np.abs(w[bad]) > limit[bad]]
        flat[at] = w
    return x


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
    _check_window_len(window_len, "window length")
    window_len = int(window_len)
    x, mag, level = _work_rows(signal, a, window_len)
    _peak_window(x, mag, level, _coefficients(as_window_kind(kind), window_len))
    return x


@functools.lru_cache(maxsize=16)
def _coefficients(kind: WindowKind, window_len: int) -> np.ndarray:
    """``window(kind, window_len)``, read-only and computed once per process
    rather than once per block and iteration (``np.kaiser`` takes ~0.3 ms)."""
    w = window(kind, window_len)
    w.flags.writeable = False
    return w


def _peak_window(x: np.ndarray, mag: np.ndarray, level: np.ndarray, w: np.ndarray) -> int:
    """``peak_window_suppress`` with coefficients ``w`` in place on ``x``, viewed
    as rows, given |x| in the bordered buffer ``mag``, which it keeps equal to
    |x|, and levels (..., 1); no checks.  Returns the number of peaks it
    windowed."""
    return _kernels.peak_suppress(x.reshape(mag.shape[0], x.shape[-1]), mag,
                                  level.reshape(-1), w)


def _crest_step(x: np.ndarray, mag: np.ndarray | None, level: np.ndarray,
                cfg: ClipConfig, ofdm: OfdmConfig) -> int | None:
    """One iteration of the clip loop in place on the rows ``x``, levels
    (rows, 1), given |x| in ``mag``; no checks.  ``pw``: a peak window, with
    ``mag`` the loop's bordered buffer, kept equal to |x|.  ``none`` and
    ``cf``: a clip and, for ``cf``, the OOB filter, with ``mag`` a plain
    np.abs(x), stale after the step, or None to take one here.  Returns the
    number of peaks windowed, or None after a clip."""
    if cfg.strategy == "pw":
        return _peak_window(x, mag, level, _coefficients(cfg.window, cfg.window_len))
    _clip(x, np.abs(x) if mag is None else mag, level)
    if cfg.strategy == "cf":
        _oob_filter(x, ofdm.n_subcarriers)
    return None


def _loop_start(x: np.ndarray, cfg: ClipConfig) -> tuple[np.ndarray, np.ndarray]:
    """|x| of the rows ``x`` for the clip loop's first step, in a bordered
    buffer for ``pw``, and the levels (rows, 1) taken from those magnitudes:
    threshold_from_ratio sees np.abs(x) with every check it makes on x."""
    if cfg.strategy == "pw":
        mag = _abs_into(x, _border(x, cfg.window_len))
    else:
        mag = np.abs(x)
    return mag, threshold_from_ratio(_interior(mag, x.shape[-1]), cfg.clip_ratio_db)[:, None]


def _rcf_rows(x0: np.ndarray, cfg: ClipConfig | None, ofdm: OfdmConfig) -> np.ndarray:
    """The clip loop of the Monte Carlo drivers on the rows ``x0``: ``x0`` itself
    without crest reduction, else one copy with every step run in place on it.

    A hard clip is a bit-exact no-op on its own output (see ``clip``), so
    ``none`` runs one step whatever the iterations.  ``pw`` stops after a
    step that windowed no peak: such a step changes no bit, and every later
    one would find the same |x| and window nothing again.  ``cf``'s OOB
    filter rewrites the low bits on every pass, so it runs every one."""
    if cfg is None or cfg.iterations == 0:
        return x0
    mag, level = _loop_start(x0, cfg)
    x = x0.copy()
    for _ in range(1 if cfg.strategy == "none" else cfg.iterations):
        if _crest_step(x, mag, level, cfg, ofdm) == 0:
            break
        if cfg.strategy == "cf":
            mag = None  # the OOB filter rewrote every sample
    return x


def rcf(symbol: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig):
    """Synthesize one frequency-domain symbol and run the clip loop on it.

    Returns (time signal, ClipReport).  With iterations=0 the synthesized
    signal passes through untouched.  NaN or inf bins and an all-zero
    symbol raise ValueError.
    """
    symbol = np.asarray(symbol, dtype=np.complex128)
    if symbol.shape != (ofdm.n_subcarriers,):
        raise ValueError(
            f"symbol must have {ofdm.n_subcarriers} bins, got shape {symbol.shape}")
    if not np.isfinite(symbol).all():
        raise ValueError("symbol must be finite (no NaN or inf bins)")
    x = synthesize(symbol, ofdm.oversample)
    papr_before = papr_db(x)
    if cfg.iterations == 0:
        return x, ClipReport(papr_before, papr_before, 0, np.array([papr_before]))
    rows = x.reshape(1, -1)  # a view: the steps run in place on x
    mag, level = _loop_start(rows, cfg)
    count = 0
    per_iter = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        if it and cfg.strategy != "pw":
            mag = np.abs(rows)  # a clip leaves it stale
        count += int((_interior(mag, x.size) > level).sum())
        _crest_step(rows, mag, level, cfg, ofdm)
        per_iter[it] = papr_db(x)
    return x, ClipReport(papr_before, float(per_iter[-1]), count, per_iter)
