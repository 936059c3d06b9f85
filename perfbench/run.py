"""Benchmark of the ofdmclip CLI: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ccdf_cf --seed 1 --seconds 20 --trace 0

``--trace 0`` runs ``python -m ofdmclip`` as child processes and times them
from outside: wall time with ``time.perf_counter``, CPU time and peak RSS from
``os.wait4`` rusage (which includes the pool workers the CLI reaps).  Times
are scaled to a reference host speed, measured between invocations: wall
times by the reference's wall time, CPU time by its CPU time.
``--trace 1`` runs the same command in this process with the layers wrapped
(``layers.py``) and replays a fixed batch through each layer.  Every CSV the
CLI writes is checked (``checks.py``).  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_csv, flag_value

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

# Flags not given are the CLI defaults: N=64, L=4, 8-QAM, --cr-db 3, K=5, cf,
# hann/11.  Why each workload is here is in README.md.  ser_sweep,
# window_sweep and ccdf_bign_pw run fewer symbols than first planned (2000,
# 1000 and 500, not 4000, 4000 and 1000), so that a run holds enough
# invocations for a steady median.
WORKLOADS = {
    "ccdf_cf": ["ccdf", "--clip", "cf", "--symbols", "10000", "--workers", "1"],
    "ser_sweep": ["ser", "--symbols", "2000", "--workers", "2"],
    "window_sweep": ["window-sweep", "--symbols", "1000", "--workers", "1"],
    "ccdf_bign_pw": ["ccdf", "--n", "1024", "--oversample", "8", "--mod", "64",
                     "--clip", "pw", "--symbols", "500", "--workers", "1"],
}

# Symbols for the --workers 1 vs 2 byte comparison: one more than the
# 1024-symbol chunk, so the pool gets two chunks.  A 1024-row chunk of
# ccdf_bign_pw costs as much as the workload, so it compares a single chunk.
PARITY_SYMBOLS = {"ccdf_cf": 1025, "ser_sweep": 1025, "window_sweep": 1025, "ccdf_bign_pw": 4}

SETUP_SHARE = 0.15
MIN_SAMPLES = 3
# Typical wall and CPU time of reference(1) on the 2-CPU Xeon VM the
# bounds were set on, with the host quiet.
REFERENCE_S = 0.11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "success_rate": "ratio"}


def with_flag(argv: list[str], name: str, value) -> list[str]:
    """Copy of ``argv`` with ``--name`` set to ``value``."""
    argv = list(argv)
    if name in argv:
        argv[argv.index(name) + 1] = str(value)
    else:
        argv += [name, str(value)]
    return argv


@dataclass
class Reference:
    """Wall and per-lane CPU time of one reference() measurement."""
    wall_s: float
    cpu_s: float


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    csv: str
    reference: Reference | None = None  # mean of reference() just before and just after


def reference_work() -> None:
    """A fixed mix of the work the CLI does: batch FFTs, generator
    construction and a Python loop of small-array numpy steps.

    It does not use ofdmclip, so timing it measures only how fast the host
    runs at the moment.  On a shared host that speed drifts by tens of
    percent over minutes.
    """
    import numpy as np
    x = np.random.default_rng(7).standard_normal((512, 256)) + 0j
    mag = np.abs(x)
    w = np.hanning(11)
    for _ in range(10):
        np.fft.ifft(np.fft.fft(x, axis=-1), axis=-1)
    for i in range(400):
        np.random.default_rng(np.random.SeedSequence([7, 0, i])).integers(0, 2, 192)
    for m in mag:
        b = np.zeros(m.size)
        for i in np.flatnonzero((m[1:-1] > 2.0) & (m[1:-1] > m[:-2]))[:4]:
            b[i:i + 11] += (1.0 - 2.0 / m[i + 1]) * w[:b[i:i + 11].size]
        np.minimum(b, 1.0)


def reference(lanes: int) -> Reference:
    """Time reference_work() in ``lanes`` forked processes at once.

    ``lanes`` is the workload's worker count, so the reference meets the
    same contention for the host's cores, and the same wake-up delays of a
    vCPU the host has taken away, as the CLI and its pool.  Wall time is
    until the last lane ends; CPU time is the mean per lane, from the same
    ``os.wait4`` rusage that times the CLI.  While the host takes the vCPUs
    away, wall time grows and CPU time does not, so each is scaled by its
    own kind of reference.
    """
    start = time.perf_counter()
    pids = []
    for _ in range(lanes):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                reference_work()
                code = 0
            finally:
                os._exit(code)
        pids.append(pid)
    cpu, failed = 0.0, False
    for pid in pids:
        _, status, usage = os.wait4(pid, 0)
        cpu += usage.ru_utime + usage.ru_stime
        failed |= status != 0
    if failed:
        raise RuntimeError("a reference lane failed")
    return Reference(time.perf_counter() - start, cpu / lanes)


def at_reference_speed(seconds: float, reference_seconds: float) -> float:
    """``seconds`` scaled to a host on which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_seconds


class Tally:
    """Checked outputs: how many were attempted and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, argv, rc: int, csv: str, expect: str | None = None) -> None:
        self.attempted += 1
        if rc != 0:
            problem = f"exit code {rc}"
        elif expect is not None and csv != expect:
            problem = "CSV bytes differ from the first invocation with the same inputs"
        else:
            problem = check_csv(argv, csv)
        if problem:
            self.failed += 1
            print(f"output check failed for {' '.join(argv)}: {problem}", file=sys.stderr)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("OFDMCLIP_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(SRC))
    return env


def read_csv(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def invoke(argv: list[str], out: Path) -> Invocation:
    """Run the CLI once as a child process and wait for it and its workers."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ofdmclip", *argv, "--out", str(out)],
                            env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, read_csv(out))


def check_parity(argv, n_symbols: int, work: Path, tally: Tally) -> None:
    """The CSV bytes must not depend on the worker count."""
    small = with_flag(argv, "--symbols", n_symbols)
    one, two = (invoke(with_flag(small, "--workers", w), work / f"parity{w}.csv")
                for w in (1, 2))
    tally.check(small, one.rc, one.csv)
    tally.check(small, two.rc, two.csv, expect=one.csv)


def end_to_end(argv, seconds: float, work: Path, tally: Tally):
    """Set-up and full invocations, interleaved until ``seconds`` are used.

    Set-up runs get SETUP_SHARE of the time of the full runs.  Interleaving
    makes both medians span the whole run.  Times are reported at reference
    host speed, with the reference run in as many processes as the workload
    has workers; the raw medians go into the sample block.
    """
    setup_argv = with_flag(argv, "--symbols", 1)
    lanes = int(flag_value(argv, "--workers", "1"))
    setups, runs = [], []
    references = [reference(lanes)]

    def invoke_at_pace(argv, out):
        run = invoke(argv, out)
        references.append(reference(lanes))
        before, after = references[-2:]
        run.reference = Reference((before.wall_s + after.wall_s) / 2,
                                  (before.cpu_s + after.cpu_s) / 2)
        return run

    deadline = time.perf_counter() + seconds
    while True:
        if (sum(s.wall_s for s in setups) <= SETUP_SHARE * sum(r.wall_s for r in runs)
                or len(setups) < MIN_SAMPLES <= len(runs)):
            run = invoke_at_pace(setup_argv, work / "setup.csv")
            tally.check(setup_argv, run.rc, run.csv)
            setups.append(run)
        else:
            run = invoke_at_pace(argv, work / "out.csv")
            tally.check(argv, run.rc, run.csv, expect=runs[0].csv if runs else None)
            runs.append(run)
        left = deadline - time.perf_counter()
        if (min(len(runs), len(setups)) >= MIN_SAMPLES
                and left < statistics.median(r.wall_s for r in runs)):
            break
    metrics = {
        "wall_s": statistics.median(at_reference_speed(r.wall_s, r.reference.wall_s)
                                    for r in runs),
        "cpu_s": statistics.median(at_reference_speed(r.cpu_s, r.reference.cpu_s)
                                   for r in runs),
        "setup_s": statistics.median(at_reference_speed(s.wall_s, s.reference.wall_s)
                                     for s in setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    samples = {"invocations": len(runs), "setup_invocations": len(setups),
               "raw_wall_s": statistics.median(r.wall_s for r in runs),
               "raw_cpu_s": statistics.median(r.cpu_s for r in runs),
               "raw_setup_s": statistics.median(s.wall_s for s in setups),
               "reference_lanes": lanes,
               "reference_wall_s": statistics.median(r.wall_s for r in references),
               "reference_cpu_s": statistics.median(r.cpu_s for r in references)}
    return metrics, samples


def per_layer(argv, seed: int, seconds: float, work: Path, spans: Path, tally: Tally,
              probes=None, replay_symbols=None):
    """Replay, then untraced and traced in-process passes, in alternating
    order, until ``seconds`` are used."""
    import layers

    metrics = layers.replay(seed, replay_symbols or layers.REPLAY_SYMBOLS)
    out = work / "trace.csv"
    argv = with_flag(with_flag(argv, "--workers", 1), "--out", out)
    requested = int(flag_value(argv, "--symbols", "10000"))
    passes, overheads, pair_walls, first = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not passes or deadline - time.perf_counter() >= statistics.median(pair_walls):
        walls = {}
        for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
            out.unlink(missing_ok=True)
            start = time.perf_counter()
            if traced:
                rc, tracer, missing = layers.traced_pass(argv, probes or layers.PROBES)
            else:
                rc = layers.untraced_pass(argv)
            walls[traced] = time.perf_counter() - start
            csv = read_csv(out)
            tally.check(argv, rc, csv, expect=first)
            first = first or csv
        passes.append(layers.trace_metrics(tracer, missing, requested))
        overheads.append(walls[True] / walls[False])
        pair_walls.append(walls[True] + walls[False])
    tracer.write(spans)

    # median_low keeps counts exact: it returns one of the measured values.
    for name in passes[0]:
        values = [p[name] for p in passes]
        metrics[name] = None if None in values else statistics.median_low(values)
    metrics["trace.overhead"] = statistics.median(overheads)
    return metrics, {"traced_passes": len(passes)}


def machine(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba_present": importlib.util.find_spec("numba") is not None,
            "seed": seed}


def import_program():
    """Import ofdmclip from this checkout's ``src``; exit 1 when it is not there."""
    if not (SRC / "ofdmclip" / "__init__.py").is_file():
        sys.exit(f"error: no ofdmclip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ofdmclip
    if SRC.resolve() not in Path(ofdmclip.__file__).resolve().parents:
        sys.exit(f"error: imported ofdmclip from {ofdmclip.__file__}, not from {SRC}")


def measure(workload: str, seed: int, seconds: float, trace: bool, *, symbols=None,
            probes=None, replay_symbols=None) -> tuple[dict, dict]:
    """One benchmark run.  Returns (result object, sample counts).

    ``symbols``, ``probes`` and ``replay_symbols`` shrink or alter the run for
    the smoke test; the benchmark proper leaves them unset.
    """
    seed %= 2 ** 64
    argv = with_flag(WORKLOADS[workload], "--seed", seed)
    parity = PARITY_SYMBOLS[workload]
    if symbols is not None:
        argv, parity = with_flag(argv, "--symbols", symbols), symbols
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    tally = Tally()
    try:
        check_parity(argv, parity, work, tally)
        if trace:
            import layers
            values, samples = per_layer(argv, seed, seconds, work, WORK / f"spans-{workload}.csv",
                                        tally, probes, replay_symbols)
            units = layers.TRACE_UNITS | layers.REPLAY_UNITS
        else:
            values, samples = end_to_end(argv, seconds, work, tally)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for entry in metrics.values():
        if entry["value"] is None:
            entry["missing"] = True
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    result, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": machine(args.seed), "workload": args.workload,
                      "samples": samples}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
