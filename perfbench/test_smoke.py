"""Smoke test of the benchmark on the mini scene (120x90, 0.07 s cut to its
first 4,000 events, seed 5).

Every workload runs untraced and traced.  The test checks that each
end-to-end and per-layer metric is printed with its unit, that the last line
is the JSON result BENCHMARK.json describes, and that two traced runs of one
seed pass their checks and agree exactly on every count (page faults
aside) and quality figure.
Untraced runs of two_strip and fan_coin also solve recordings of other seeds;
at this small size some of those may fail the accuracy check, which the run
reports as failed calls.
Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# fan_coin and many_clusters run but are left out of BENCHMARK.json: the
# first is too unsteady across seeds for a bound, the second does not fit the
# benchmark's time limit beside the other three
WORKLOADS = ("two_strip", "fan_coin", "many_clusters", "three_methods", "stream")
ALL_END_TO_END = (
    "setup_s",
    "solve_s",
    "events_per_s",
    "peak_rss_mb",
    "accuracy",
    "motion_err",
    "objective",
    "failed_frac",
)
TIME_UNITS = ("s", "ns/event", "ns/pixel")


def _run(workload: str, trace: int) -> tuple[list, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", "mini",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(table: list, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[2:3] for line in table)


def _check(table: list, result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert 0 <= result["failed"] < result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert _printed(table, m["name"], m["unit"]), m["name"]


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    table, result = _run(workload, 0)
    _check(table, result, BENCH["end_to_end"])
    for name in ALL_END_TO_END:
        assert any(line.split()[:1] == [name] for line in table), name
    assert result["metrics"]["setup_s"]["value"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first_table, first = _run(workload, 1)
    _, second = _run(workload, 1)
    _check(first_table, first, BENCH["per_layer"])
    assert first["correct"] is True
    metrics = first["metrics"]
    assert metrics["trace.missing_names"]["value"] == 0
    assert metrics["trace.coverage"]["value"] >= 0.9
    # page faults depend on the allocator's state, not only on the inputs
    exact = [
        name
        for name, m in metrics.items()
        if m["unit"] not in TIME_UNITS
        and name not in ("trace.overhead_frac", "trace.coverage", "process.minor_faults")
    ]
    assert {n: metrics[n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
