"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"symbols": 3, "replay_symbols": 8}
COUNTS = ("simulate.calls", "simulate.redraw_ratio", "crest.clipped_frac",
          "crest.idle_iter_frac", "crest.over_thresh_frac")
EXPECTED_CALLS = {"ccdf_cf": 1, "ser_sweep": 8, "window_sweep": 6, "ccdf_bign_pw": 1}

run.import_program()


def _units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, _ = run.measure(workload, 7, 0.0, trace=False, **TINY)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_per_layer_metrics_and_counts_repeat(workload):
    first, _ = run.measure(workload, 7, 0.0, trace=True, **TINY)
    second, _ = run.measure(workload, 7, 0.0, trace=True, **TINY)
    assert first["correct"] and second["correct"]
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(entry["value"] is not None for entry in first["metrics"].values())
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["simulate.calls"]["value"] == EXPECTED_CALLS[workload]
    assert first["metrics"]["simulate.redraw_ratio"]["value"] == EXPECTED_CALLS[workload]


def test_removed_name_reads_missing():
    renamed = tuple((m, a + "_renamed" if a == "peak_suppress" else a, s)
                    for m, a, s in layers.PROBES)
    result, _ = run.measure("window_sweep", 7, 0.0, trace=True, probes=renamed, **TINY)
    metrics = result["metrics"]
    for name in ("crest.peak_window_s", "crest.over_thresh_frac", "simulate.self_s"):
        assert metrics[name]["value"] is None and metrics[name]["missing"] is True, name
    assert metrics["transform.synthesize_s"]["value"] is not None
    assert "missing" not in metrics["transform.synthesize_s"]
