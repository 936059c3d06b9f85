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
rows, with the level given once or per row; the clip loop runs them on
whole batches.  NaN or inf samples raise ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .metrics import _mean_power, papr_db
from .modulation import _integral
from .transform import OfdmConfig, analyze, synthesize
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


@dataclass(frozen=True)
class ClipConfig:
    """Crest-reduction parameters (defaults follow the CLI defaults)."""

    clip_ratio_db: float = 3.0
    iterations: int = 5
    strategy: str = "cf"
    window: WindowKind = field(default_factory=lambda: WindowKind("hann"))
    window_len: int = 11

    def __post_init__(self):
        _clip_gain(self.clip_ratio_db)
        if _integral(self.iterations, "iterations") < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        if _integral(self.window_len, "window_len") < 1 or self.window_len % 2 == 0:
            raise ValueError(f"window_len must be odd and >= 1, got {self.window_len}")
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
    """Check a > 0 and a finite mag; one level per row, shaped to broadcast against mag."""
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

    The over-threshold mask uses np.abs and the rescaled samples are nudged
    until np.abs certifies them <= a, so re-clipping is a bit-exact no-op.
    """
    x = np.asarray(signal, dtype=np.complex128)
    mag = np.abs(x)
    level = _row_levels(a, mag)
    over = mag > level
    y = x.copy()
    if over.any():
        limit = np.broadcast_to(level, x.shape)[over]
        xo = x[over]
        scale = limit / mag[over]
        w = xo * scale
        bad = np.abs(w) > limit
        while bad.any():
            scale = np.where(bad, np.nextafter(scale, 0.0), scale)
            w = np.where(bad, xo * scale, w)
            bad = np.abs(w) > limit
        y[over] = w
    return y


def oob_filter(signal: np.ndarray, n_subcarriers: int, oversample: int) -> np.ndarray:
    """Zero every out-of-band bin of each row; a linear, idempotent projection."""
    signal = np.asarray(signal, dtype=np.complex128)
    total = signal.shape[-1]
    if total != n_subcarriers * oversample:
        raise ValueError(f"signal length {total} != {n_subcarriers} * {oversample}")
    with np.errstate(invalid="ignore"):  # inf - inf; reported just below
        spectrum = analyze(signal)
    # bin 0 sums its row, so a NaN or inf sample leaves it non-finite
    if not np.isfinite(spectrum[..., 0]).all():
        raise ValueError("signal must be finite (no NaN or inf samples)")
    spectrum[..., n_subcarriers // 2: total - n_subcarriers // 2] = 0.0
    return np.fft.ifft(spectrum, norm="ortho", axis=-1)


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
    window_len = _integral(window_len, "window length")
    if window_len < 1 or window_len % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {window_len}")
    x = np.asarray(signal, dtype=np.complex128)
    mag = np.abs(x)
    level = _row_levels(a, mag).reshape(-1)
    shape = (level.size, x.shape[-1])
    y = _kernels.peak_suppress(x.reshape(shape), mag.reshape(shape), level,
                               window(kind, window_len))
    return y.reshape(x.shape)


def _rcf_rows(x0: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig, record: bool = False):
    """The clip loop behind rcf() and the Monte Carlo drivers, on rows of
    independent symbols.  Returns the final rows; with ``record`` also the
    per-row count of samples above A over all iterations and the PAPR after
    each iteration, shape (iterations, rows)."""
    a = threshold_from_ratio(x0, cfg.clip_ratio_db)
    counts = np.zeros(x0.shape[0], dtype=np.int64)
    papr_track = np.empty((cfg.iterations, x0.shape[0]))
    x = x0
    for it in range(cfg.iterations):
        if record:
            counts += (np.abs(x) > a[:, None]).sum(axis=1)
        if cfg.strategy == "pw":
            x = peak_window_suppress(x, a, cfg.window, cfg.window_len)
        else:
            x = clip(x, a)
            if cfg.strategy == "cf":
                x = oob_filter(x, ofdm.n_subcarriers, ofdm.oversample)
        if record:
            papr_track[it] = papr_db(x)
    return (x, counts, papr_track) if record else x


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
    x0 = synthesize(symbol, ofdm.oversample)
    papr_before = papr_db(x0)
    if cfg.iterations == 0:
        return x0, ClipReport(papr_before, papr_before, 0, np.array([papr_before]))
    y, counts, papr_track = _rcf_rows(x0.reshape(1, -1), cfg, ofdm, record=True)
    per_iter = papr_track[:, 0].copy()
    return y.reshape(x0.shape), ClipReport(
        papr_before, float(per_iter[-1]), int(counts[0]), per_iter)
