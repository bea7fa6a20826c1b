"""Every workload and the traced pass run end to end at the smoke scale.

A later change to an entry point the benchmark drives breaks these loudly.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import harness
import run
from metrics import END_TO_END, PER_LAYER


def _drive(workload, trace, cwd=None, script=None):
    command = [
        sys.executable, str(script or harness.PERF / "run.py"), "--workload", workload,
        "--seed", "11", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_driver_form_prints_one_result_object(workload, trace):
    done = _drive(workload, trace, cwd=str(harness.ROOT))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for spec in declared:
        assert result["metrics"][spec.name]["unit"] == spec.unit
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    leftovers = [p for p in harness.OUT.iterdir() if p.is_dir()] if harness.OUT.exists() else []
    assert leftovers == []  # scratch homes are removed on the way out


def test_traced_pass_writes_its_spans_once():
    _drive("knn_scan", 1, cwd=str(harness.ROOT))
    spans = json.loads((harness.OUT / "trace_knn_scan.json").read_text())["spans"]
    assert {"name", "start", "end", "parent", "op_id"} == set(spans[0])
    assert {s["name"] for s in spans} >= {"op", "engine.plan", "engine.advance", "engine.verify"}


def test_human_form_prints_every_metric_with_unit_and_bound(tmp_path):
    out = tmp_path / "runs.json"
    done = subprocess.run(
        [sys.executable, str(harness.PERF / "run.py"), "--smoke", "--seconds", "1",
         "--only", "knn_scan", "--out", str(out)],
        capture_output=True, text=True, cwd=str(harness.ROOT), timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for spec in END_TO_END:
        assert spec.name in done.stdout
    assert "failed_share" in done.stdout and "attempted" in done.stdout
    assert len(json.loads(out.read_text())["runs"]) == 1


def test_without_the_repository_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(harness.PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _drive("knn_scan", 0, cwd=str(tmp_path), script=pathlib.Path("perf") / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
