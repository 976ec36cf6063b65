"""Tests of the benchmark itself:  python -m pytest -q perfbench

* two traced runs at one seed give identical per-layer counts;
* outside a full checkout the benchmark exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as run_workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

COUNT_UNITS = {"count", "depth", "ratio", "evals/call", "evals/point"}
TIME_METRICS = {"tracing.overhead_share"}


@pytest.mark.parametrize("workload", sorted(run_workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        problems, attempted, failed, metrics = run.trace_run(workload, seed=7, ops_limit=6)
        assert problems == [] and failed == 0 and attempted == 6
        counts.append(
            {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS and k not in TIME_METRICS}
        )
    assert counts[0] == counts[1]
    assert any(v for v in counts[0].values())


def test_every_per_layer_metric_is_declared():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == dict(tracer.metric_units())


def test_fails_outside_a_full_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
