"""Smoke test of the benchmark: every workload, scaled far down, prints
every declared metric with its declared unit, traced and untraced; a
second seed also runs; without the program the benchmark fails cleanly.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _bench(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, kind):
    metrics = _result(workload, 1, trace)["metrics"]
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs(workload):
    assert _result(workload, 2, 0)["metrics"]["run_records_per_s"]["value"] > 0


def test_all_workloads_in_one_command():
    proc = _bench(ROOT, "all", 3, 0)
    assert proc.returncode == 0
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"]
    assert set(summary["metrics"]) == {f"{w}/{m['name']}" for w in WORKLOADS
                                       for m in DECLARED["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
