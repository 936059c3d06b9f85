"""Per-layer measurements: a traced in-process CLI pass and a fixed-batch replay.

The layers are the ofdmclip modules ``cli``, ``simulate``, ``crest``,
``transform``, ``modulation``, ``channel`` and ``metrics``.  ``_kernels``
functions count under the layer that calls them; ``windows`` has no metric
because ``window()`` runs once per chunk.

A probe wraps a public function at the module attribute where its caller looks
it up, so the wrapper sees every call the program makes.  A probe whose
module or attribute no longer exists leaves its metrics missing (None), never 0.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import time

import numpy as np

# (module, attribute, span name).  The span name says which layer owns the call.
PROBES = (
    ("cli", "papr_samples", "simulate.papr_samples"),
    ("cli", "ser_errors", "simulate.ser_errors"),
    ("cli", "estimate_ccdf", "metrics.estimate_ccdf"),
    ("cli", "ccdf_point_db", "metrics.ccdf_point_db"),
    ("simulate", "bits_rng", "simulate.bits_rng"),
    ("simulate", "noise_rng", "simulate.noise_rng"),
    ("simulate", "synthesize", "transform.synthesize"),
    ("crest", "analyze", "transform.analyze"),
    ("_kernels", "peak_suppress", "crest.peak_suppress"),
    ("_kernels", "nearest_labels", "modulation.nearest_labels"),
    ("_kernels", "papr_db_rows", "metrics.papr_db_rows"),
)

DRIVERS = ("simulate.papr_samples", "simulate.ser_errors")
CLI_CALLS = DRIVERS + ("metrics.estimate_ccdf", "metrics.ccdf_point_db")
RNG = ("simulate.bits_rng", "simulate.noise_rng")
DRIVER_CALLS = RNG + ("transform.synthesize", "transform.analyze", "crest.peak_suppress",
                      "modulation.nearest_labels", "metrics.papr_db_rows")

# metric -> (spans whose self time it sums, spans that must be wrapped for the
# sum to mean what it says: a self time grows when a child span goes unwrapped)
SELF_TIME = {
    "cli.self_s": (("cli.main",), CLI_CALLS),
    "simulate.self_s": (DRIVERS, DRIVERS + DRIVER_CALLS),
    "simulate.rng_s": (RNG, RNG),
    "transform.synthesize_s": (("transform.synthesize",),) * 2,
    "transform.analyze_s": (("transform.analyze",),) * 2,
    "crest.peak_window_s": (("crest.peak_suppress",),) * 2,
    "modulation.demap_s": (("modulation.nearest_labels",),) * 2,
    "metrics.papr_s": (("metrics.papr_db_rows",),) * 2,
    "metrics.ccdf_s": (("metrics.estimate_ccdf", "metrics.ccdf_point_db"),) * 2,
}

COUNT_NEEDS = {
    "simulate.calls": DRIVERS,
    "simulate.redraw_ratio": ("transform.synthesize",),
    "crest.over_thresh_frac": ("crest.peak_suppress",),
    "trace.coverage": CLI_CALLS,
}

TRACE_UNITS = dict.fromkeys(SELF_TIME, "s") | {
    "simulate.calls": "count", "simulate.redraw_ratio": "ratio",
    "crest.over_thresh_frac": "ratio", "trace.coverage": "ratio", "trace.overhead": "ratio",
}


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus work counts
    taken from the arguments of the synthesis and peak-window calls."""

    def __init__(self):
        self.spans: list = []
        self._open = [-1]
        self.synthesized = 0
        self.over_thresh = 0
        self.examined = 0

    def wrap(self, name, fn):
        count = {"transform.synthesize": self._count_symbols,
                 "crest.peak_suppress": self._count_over}.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1]
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
                if count is not None:
                    count(*args)
        return traced

    def _count_symbols(self, symbol, *_):
        self.synthesized += int(np.prod(np.shape(symbol)[:-1]))

    def _count_over(self, x, mag, thresh, *_):
        self.over_thresh += int((mag > thresh[:, None]).sum())
        self.examined += mag.size

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in self.spans)


def _lookup(module_name: str, attr: str):
    """(module, function) for ``ofdmclip.<module_name>.<attr>``, or None when
    either no longer exists."""
    try:
        module = importlib.import_module("ofdmclip." + module_name)
        return module, getattr(module, attr)
    except (ImportError, AttributeError):
        return None


@contextlib.contextmanager
def _probes_installed(tracer, probes):
    """Wrap every probe that resolves; yield the span names that did not."""
    saved, missing = [], set()
    for module_name, attr, span in probes:
        found = _lookup(module_name, attr)
        if found is None:
            missing.add(span)
            continue
        module, fn = found
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span, fn))
    try:
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def untraced_pass(argv) -> int:
    """Exit code of ``cli.main(argv)`` run in this process."""
    from ofdmclip import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def traced_pass(argv, probes=PROBES):
    """Run ``cli.main(argv)`` with the probes wrapped.

    Returns (exit code, tracer, span names whose probe is missing).
    """
    from ofdmclip import cli
    tracer = Tracer()
    with _probes_installed(tracer, probes) as missing, \
            contextlib.redirect_stdout(io.StringIO()):
        rc = tracer.wrap("cli.main", cli.main)(argv)
    return rc, tracer, missing


def trace_metrics(tracer: Tracer, missing: set, requested_symbols: int) -> dict:
    """Per-layer values of one traced pass; None where a needed probe is missing."""
    spans = tracer.spans
    duration = np.array([end - start for _, start, end, _ in spans])
    in_children = np.zeros(len(spans))
    for (_, start, end, parent) in spans:
        if parent >= 0:
            in_children[parent] += end - start
    self_time = duration - in_children
    names = np.array([name for name, *_ in spans])
    root = int(np.flatnonzero(names == "cli.main")[0])

    out = {}
    for metric, (summed, _) in SELF_TIME.items():
        out[metric] = float(self_time[np.isin(names, summed)].sum())
    out["simulate.calls"] = int(np.isin(names, DRIVERS).sum())
    out["simulate.redraw_ratio"] = tracer.synthesized / requested_symbols
    out["crest.over_thresh_frac"] = tracer.over_thresh / max(tracer.examined, 1)
    out["trace.coverage"] = float(in_children[root] / duration[root])
    needs = {m: n for m, (_, n) in SELF_TIME.items()} | COUNT_NEEDS
    for metric, spans_needed in needs.items():
        if missing.intersection(spans_needed):
            out[metric] = None
    return out


# ---------------------------------------------------------------------------
# replay: one seeded batch (N=64, L=4, 8-QAM) through each public function
# ---------------------------------------------------------------------------

REPLAY_SYMBOLS = 1024
REPLAY_REPS = 3
RCF_SYMBOLS = 256

REPLAY_UNITS = {
    "simulate.bits_rng_us": "us", "simulate.noise_rng_us": "us",
    "simulate.unclipped_us": "us", "simulate.none_us": "us", "simulate.cf_us": "us",
    "simulate.pw_us": "us", "simulate.ser_point_us": "us",
    "transform.synthesize_us": "us", "transform.analyze_us": "us",
    "crest.clip_us": "us", "crest.oob_filter_us": "us", "crest.peak_window_us": "us",
    "crest.clipped_frac": "ratio", "crest.idle_iter_frac": "ratio",
    "channel.awgn_us": "us", "modulation.map_us": "us", "modulation.demap_us": "us",
    "metrics.papr_us": "us",
}


def _us_per_symbol(call, n_symbols: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / n_symbols * 1e6


def _rcf_work(rcf, points, cfgs, ofdm) -> tuple[float, float]:
    """(samples above A / samples examined, idle iterations / iterations) over
    every strategy.  An iteration is idle when its PAPR is bit-equal to the
    one before it."""
    clipped = examined = idle = iterations = 0
    for cfg in cfgs.values():
        for symbol in points:
            _, report = rcf(symbol, cfg, ofdm)
            clipped += report.clipped_sample_count
            examined += cfg.iterations * ofdm.n_samples
            papr = np.concatenate([[report.papr_before_db], report.per_iteration_papr_db])
            idle += int((papr[1:] == papr[:-1]).sum())
            iterations += cfg.iterations
    return clipped / examined, idle / iterations


def replay(seed: int, n_symbols: int = REPLAY_SYMBOLS, reps: int = REPLAY_REPS) -> dict:
    """µs per symbol of each layer's public function on one seeded batch."""
    from ofdmclip import ClipConfig, OfdmConfig, constellation, synthesize

    ofdm = OfdmConfig(64, 4, 8)
    const = constellation(ofdm.mod_order)
    n_bits = ofdm.n_subcarriers * const.bits_per_symbol
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_symbols * n_bits, dtype=np.uint8)
    points = const.points[rng.integers(0, ofdm.mod_order, (n_symbols, ofdm.n_subcarriers))]
    received = points + 0.1 * (rng.standard_normal(points.shape)
                                + 1j * rng.standard_normal(points.shape))
    x = synthesize(points, ofdm.oversample)
    a = float(np.sqrt(np.mean(np.abs(x) ** 2)) * 10.0 ** (3.0 / 20.0))
    cfgs = {s: ClipConfig(3.0, 5, s) for s in ("none", "cf", "pw")}
    n = n_symbols

    timed = {
        "simulate.bits_rng_us": ("simulate.bits_rng", lambda f: [
            f(seed, i).integers(0, 2, n_bits, dtype=np.uint8) for i in range(n)]),
        "simulate.noise_rng_us": ("simulate.noise_rng", lambda f: [
            f(seed, i).standard_normal((ofdm.n_samples, 2)) for i in range(n)]),
        "simulate.unclipped_us": ("simulate.papr_samples", lambda f: f(ofdm, None, n, seed)),
        "simulate.none_us": ("simulate.papr_samples", lambda f: f(ofdm, cfgs["none"], n, seed)),
        "simulate.cf_us": ("simulate.papr_samples", lambda f: f(ofdm, cfgs["cf"], n, seed)),
        "simulate.pw_us": ("simulate.papr_samples", lambda f: f(ofdm, cfgs["pw"], n, seed)),
        "simulate.ser_point_us": ("simulate.ser_errors",
                                  lambda f: f(ofdm, cfgs["cf"], 10.0, n, seed)),
        "transform.synthesize_us": ("transform.synthesize", lambda f: f(points, ofdm.oversample)),
        "transform.analyze_us": ("transform.analyze", lambda f: f(x)),
        "crest.clip_us": ("crest.clip", lambda f: f(x, a)),
        "crest.oob_filter_us": ("crest.oob_filter",
                                lambda f: f(x, ofdm.n_subcarriers, ofdm.oversample)),
        "crest.peak_window_us": ("crest.peak_window_suppress",
                                 lambda f: f(x.ravel(), a, "hann", 11)),
        "channel.awgn_us": ("channel.awgn", lambda f: f(x, 10.0, seed)),
        "modulation.map_us": ("modulation.map_bits", lambda f: f(bits, ofdm.mod_order)),
        "modulation.demap_us": ("modulation.demap_points",
                                lambda f: f(received, ofdm.mod_order)),
        "metrics.papr_us": ("metrics.papr_db", lambda f: f(x)),
    }
    out = {}
    for metric, (path, call) in timed.items():
        found = _lookup(*path.split("."))
        out[metric] = None if found is None else _us_per_symbol(
            lambda: call(found[1]), n, reps)

    found = _lookup("crest", "rcf")
    if found is None:
        out["crest.clipped_frac"] = out["crest.idle_iter_frac"] = None
    else:
        out["crest.clipped_frac"], out["crest.idle_iter_frac"] = _rcf_work(
            found[1], points[:RCF_SYMBOLS], cfgs, ofdm)
    return out
