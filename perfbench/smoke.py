"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke.py

It checks that each run prints the result line with every metric that
BENCHMARK.json names, each with its unit; that no job fails on the current
code; that traced spans nest (each child lies inside its parent, in the
same job); that the layers the workload predictions call idle are idle; and
that the benchmark refuses to run without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers that do no work on a workload (the "predicted flat" column).
IDLE = {"clark_herglotz": ("gleason", "cli", "kernels", "colligation", "parser"),
        "kernel_gram": ("gleason", "clark", "cli", "colligation")}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = json.loads(next(line for line in lines if line.startswith("run: "))[5:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines)
    return result, run


def check_metrics(metrics: dict, spec: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run(workload):
    proc = bench(workload, 0)
    result, run = parsed(proc)
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run["jobs"] == result["attempted"]
    # the wall-clock figures are printed by name with their units too
    printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()
               if line.startswith("  ") and len(line.split()) >= 3}
    for name, unit in (("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
                       ("setup_wall_s", "s"), ("fail_frac", "ratio")):
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result, run = parsed(bench(workload, 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    check_metrics(result["metrics"], SPEC["per_layer"])
    assert metrics["trace.span_coverage_min_frac"] >= 0.9
    for layer in IDLE.get(workload, ()):
        busy = {k: v for k, v in metrics.items()
                if k.startswith(layer + ".") and k.endswith(".calls") and v}
        assert not busy, busy
    assert run["fock_calls"] == 0

    spans = json.loads((ROOT / run["spans_file"]).read_text())
    start, end, parent, job = spans["start"], spans["end"], spans["parent"], spans["job"]
    assert len(start) == run["spans"] > 0
    for i, par in enumerate(parent):
        assert start[i] <= end[i]
        if par >= 0:
            assert par < i and job[par] == job[i]
            assert start[par] <= start[i] and end[i] <= end[par], (i, par)


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
