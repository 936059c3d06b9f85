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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .transform import OfdmConfig, analyze, synthesize
from .windows import WindowKind, as_window_kind, window

STRATEGIES = ("none", "cf", "pw")


@dataclass(frozen=True)
class ClipConfig:
    """Crest-reduction parameters (defaults follow the CLI defaults)."""

    clip_ratio_db: float = 3.0
    iterations: int = 5
    strategy: str = "cf"
    window: WindowKind = field(default_factory=lambda: WindowKind("hann"))
    window_len: int = 11

    def __post_init__(self):
        if not np.isfinite(self.clip_ratio_db):
            raise ValueError(f"clip_ratio_db must be finite, got {self.clip_ratio_db}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        if self.window_len < 1 or self.window_len % 2 == 0:
            raise ValueError(f"window_len must be odd and >= 1, got {self.window_len}")
        object.__setattr__(self, "window", as_window_kind(self.window))


@dataclass
class ClipReport:
    """Observability record for one rcf() run."""

    papr_before_db: float
    papr_after_db: float
    clipped_sample_count: int
    per_iteration_papr_db: np.ndarray


def threshold_from_ratio(signal: np.ndarray, clip_ratio_db: float) -> float:
    """Clipping level A = rms(signal) * 10**(clip_ratio_db/20)."""
    signal = np.asarray(signal)
    power = np.mean(np.abs(signal) ** 2)
    if power == 0.0:
        raise ValueError("cannot derive a clipping threshold from an all-zero signal")
    return float(np.sqrt(power) * 10.0 ** (clip_ratio_db / 20.0))


def _clip_rows(x: np.ndarray, thresh: np.ndarray):
    """Clip each row's magnitude to its threshold, phases untouched.

    The over-threshold mask uses np.abs and the rescaled samples are nudged
    until np.abs certifies them <= A, so re-clipping is a bit-exact no-op.
    Returns (clipped, per-row count of samples that exceeded A).
    """
    mag = np.abs(x)
    over = mag > thresh[:, None]
    counts = over.sum(axis=1)
    y = x.copy()
    if counts.any():
        limit = np.broadcast_to(thresh[:, None], x.shape)[over]
        xo = x[over]
        scale = limit / mag[over]
        w = xo * scale
        bad = np.abs(w) > limit
        while bad.any():
            scale = np.where(bad, np.nextafter(scale, 0.0), scale)
            w = np.where(bad, xo * scale, w)
            bad = np.abs(w) > limit
        y[over] = w
    return y, counts


def clip(signal: np.ndarray, a: float) -> np.ndarray:
    """Hard-clip: samples with |x| > a are scaled onto the circle |y| = a."""
    if not a > 0:
        raise ValueError(f"clipping level must be positive, got {a}")
    signal = np.asarray(signal, dtype=np.complex128)
    y, _ = _clip_rows(signal.reshape(1, -1), np.array([float(a)]))
    return y.reshape(signal.shape)


def _oob_filter_rows(x: np.ndarray, n_subcarriers: int) -> np.ndarray:
    spectrum = analyze(x)
    total = x.shape[-1]
    spectrum[..., n_subcarriers // 2: total - n_subcarriers // 2] = 0.0
    return np.fft.ifft(spectrum, norm="ortho", axis=-1)


def oob_filter(signal: np.ndarray, n_subcarriers: int, oversample: int) -> np.ndarray:
    """Zero every out-of-band bin; a linear, idempotent projection."""
    signal = np.asarray(signal, dtype=np.complex128)
    if signal.shape[-1] != n_subcarriers * oversample:
        raise ValueError(
            f"signal length {signal.shape[-1]} != {n_subcarriers} * {oversample}")
    return _oob_filter_rows(signal, n_subcarriers)


def _peak_suppress_rows(x: np.ndarray, thresh: np.ndarray, coeffs: np.ndarray):
    mag = np.abs(x)
    counts = (mag > thresh[:, None]).sum(axis=1)
    y = _kernels.peak_suppress(x, mag, thresh, coeffs)
    return y, counts


def peak_window_suppress(signal: np.ndarray, a: float, kind, window_len: int) -> np.ndarray:
    """Attenuate peaks above ``a`` with window-shaped envelopes.

    Local maxima of |x| above ``a`` (strictly greater than both neighbours;
    the first sample of a plateau; boundary samples need one neighbour) get
    a depth 1 - a/|x|.  The depths, weighted by the window centered on each
    peak, are summed into an envelope b which is capped at 1; the output is
    x * (1 - min(b, 1)).  An isolated peak therefore lands exactly on |y| = a,
    and for non-negative windows |y| <= |x| everywhere (flattop's negative
    lobes may locally amplify).
    """
    if not a > 0:
        raise ValueError(f"clipping level must be positive, got {a}")
    window_len = int(window_len)
    if window_len < 1 or window_len % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {window_len}")
    signal = np.asarray(signal, dtype=np.complex128)
    coeffs = window(kind, window_len)
    y, _ = _peak_suppress_rows(signal.reshape(1, -1), np.array([float(a)]), coeffs)
    return y.reshape(signal.shape)


def _rcf_rows(x0: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig, record_papr: bool = False):
    """Shared batch loop behind rcf() and the Monte Carlo drivers.

    Rows of x0 are independent oversampled symbols.  Returns
    (final signal, per-row over-threshold counts, per-iteration PAPR
    (iterations, rows) when requested).
    """
    power = np.mean(np.abs(x0) ** 2, axis=1)
    if not power.all():
        raise ValueError("cannot derive a clipping threshold from an all-zero signal")
    thresh = np.sqrt(power) * 10.0 ** (cfg.clip_ratio_db / 20.0)

    coeffs = window(cfg.window, cfg.window_len) if cfg.strategy == "pw" else None
    counts = np.zeros(x0.shape[0], dtype=np.int64)
    papr_track = np.empty((cfg.iterations, x0.shape[0])) if record_papr else None

    x = x0
    for it in range(cfg.iterations):
        if cfg.strategy == "pw":
            x, c = _peak_suppress_rows(x, thresh, coeffs)
        else:
            x, c = _clip_rows(x, thresh)
            if cfg.strategy == "cf":
                x = _oob_filter_rows(x, ofdm.n_subcarriers)
        counts += c
        if record_papr:
            papr_track[it] = _kernels.papr_db_rows(x)
    return x, counts, papr_track


def rcf(symbol: np.ndarray, cfg: ClipConfig, ofdm: OfdmConfig):
    """Synthesize one frequency-domain symbol and run the clip loop on it.

    Returns (time signal, ClipReport).  With iterations=0 the synthesized
    signal passes through untouched.  NaN or inf bins raise ValueError.
    """
    symbol = np.asarray(symbol, dtype=np.complex128)
    if symbol.shape != (ofdm.n_subcarriers,):
        raise ValueError(
            f"symbol must have {ofdm.n_subcarriers} bins, got shape {symbol.shape}")
    if not np.isfinite(symbol).all():
        raise ValueError("symbol must be finite (no NaN or inf bins)")
    x0 = synthesize(symbol, ofdm.oversample)
    papr_before = float(_kernels.papr_db_rows(x0.reshape(1, -1))[0])
    if cfg.iterations == 0:
        return x0, ClipReport(papr_before, papr_before, 0, np.array([papr_before]))
    y, counts, papr_track = _rcf_rows(x0.reshape(1, -1), cfg, ofdm, record_papr=True)
    per_iter = papr_track[:, 0].copy()
    return y.reshape(x0.shape), ClipReport(
        papr_before, float(per_iter[-1]), int(counts[0]), per_iter)
