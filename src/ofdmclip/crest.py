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
rows, with the level given once or per row.  Each public step copies its
input once into a C-contiguous complex128 array and runs its private twin
(``_clip``, ``_oob_filter``, ``_peak_window``) in place on that copy; the
clip loop makes one such work copy per crest config and runs the private
steps in place on it.  NaN or inf samples raise ValueError.
"""
from __future__ import annotations

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
    signal, one level per row for a batch; empty, all-zero or non-finite rows
    and a ratio whose gain is not finite and positive raise ValueError."""
    a = np.sqrt(_mean_power(signal, "clipping threshold")) * _clip_gain(clip_ratio_db)
    return float(a) if a.ndim == 0 else a


def _row_levels(a, mag: np.ndarray) -> np.ndarray:
    """Check a > 0 and a finite mag of at least one axis; one level per row,
    shaped to broadcast against mag."""
    if mag.ndim == 0:
        raise ValueError("signal needs rows of samples, got a scalar")
    a = np.asarray(a, dtype=float)
    if not (a > 0).all():
        raise ValueError(f"clipping level must be positive, got {a[~(a > 0)].flat[0]}")
    # max propagates NaN and inf, so one reduction checks every sample
    if not np.isfinite(mag.max(initial=0.0)):
        raise ValueError("signal must be finite (no NaN or inf samples)")
    return np.broadcast_to(a, mag.shape[:-1])[..., None]


def clip(signal: np.ndarray, a) -> np.ndarray:
    """Hard-clip along the last axis: samples with |x| > a are scaled onto
    the circle |y| = a, phases untouched.  ``a`` is one level or one per row.

    np.abs decides which samples are over the level; only those, at the flat
    indices ``at``, are read, rescaled and written back.  A rescaled sample
    is nudged until np.abs certifies it <= a, so re-clipping is a bit-exact
    no-op.
    """
    return _clip(np.array(signal, dtype=np.complex128, order="C"), a)


def _clip(x: np.ndarray, a) -> np.ndarray:
    """``clip`` in place on the C-contiguous complex128 array ``x``."""
    mag = np.abs(x)
    level = _row_levels(a, mag)
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
    return _oob_filter(np.array(signal, dtype=np.complex128, order="C"),
                       n_subcarriers, oversample)


def _oob_filter(x: np.ndarray, n_subcarriers: int, oversample: int) -> np.ndarray:
    """``oob_filter`` in place on the C-contiguous complex128 array ``x``:
    both FFTs run in it."""
    total = n_subcarriers * oversample
    if x.shape[-1:] != (total,):
        raise ValueError(f"signal rows must have {n_subcarriers} * {oversample} samples, "
                         f"got {x.shape or 'a scalar'}")
    _check_length(n_subcarriers, "n_subcarriers")
    _check_oversample(oversample)
    with np.errstate(invalid="ignore"):  # inf - inf; reported just below
        spectrum = analyze(x, out=x)
    # bin 0 sums its row, so a NaN or inf sample leaves it non-finite
    if not np.isfinite(spectrum[..., 0]).all():
        raise ValueError("signal must be finite (no NaN or inf samples)")
    spectrum[..., n_subcarriers // 2: total - n_subcarriers // 2] = 0.0
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
    lobes may locally amplify).
    """
    _check_window_len(window_len, "window length")
    return _peak_window(np.array(signal, dtype=np.complex128, order="C"), a, kind, window_len)


def _peak_window(x: np.ndarray, a, kind, window_len: int) -> np.ndarray:
    """``peak_window_suppress`` in place on the C-contiguous complex128
    array ``x``, viewed as rows."""
    mag = np.abs(x)
    level = _row_levels(a, mag).reshape(-1)
    shape = (level.size, x.shape[-1])
    _kernels.peak_suppress(x.reshape(shape), mag.reshape(shape), level,
                           window(kind, window_len))
    return x


def _crest_step(x: np.ndarray, a, cfg: ClipConfig, ofdm: OfdmConfig) -> None:
    """One iteration of the clip loop at level(s) ``a``, in place on ``x``: a
    peak window, or a clip followed, for ``cf``, by the OOB filter."""
    if cfg.strategy == "pw":
        _peak_window(x, a, cfg.window, cfg.window_len)
    else:
        _clip(x, a)
        if cfg.strategy == "cf":
            _oob_filter(x, ofdm.n_subcarriers, ofdm.oversample)


def _rcf_rows(x0: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig) -> np.ndarray:
    """The clip loop behind the Monte Carlo drivers, on rows of independent
    symbols: every step runs in place on one copy of ``x0``, which is
    returned (``x0`` is left as it is)."""
    a = threshold_from_ratio(x0, cfg.clip_ratio_db)
    x = x0.copy()
    for _ in range(cfg.iterations):
        _crest_step(x, a, cfg, ofdm)
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
    a = threshold_from_ratio(x, cfg.clip_ratio_db)
    count = 0
    per_iter = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        count += int((np.abs(x) > a).sum())
        _crest_step(x, a, cfg, ofdm)
        per_iter[it] = papr_db(x)
    return x, ClipReport(papr_before, float(per_iter[-1]), count, per_iter)
