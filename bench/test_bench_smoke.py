"""Smoke test of the benchmark harness at its smallest size.

Each workload runs once with tracing on, which alternates untraced and traced
units, so both result shapes and every correctness check are exercised
(bedside's set-up is the calibration campaign). No timing is asserted.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench_names(key: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["bedside", "backlog"])
def test_traced_run_is_correct_and_reports_every_layer(workload):
    result = _run(workload, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _bench_names("per_layer")


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("bedside", 0)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == _bench_names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    os.mkdir(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            with open(os.path.join(HERE, name), "rb") as src:
                (tmp_path / "bench" / name).write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "backlog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
