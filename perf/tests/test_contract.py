"""``BENCHMARK.json`` says what ``metrics.py`` and ``run.py`` do, within the driver's limits."""

import json
import re

import harness
import run
from metrics import END_TO_END, PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _spec():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_keys_command_and_paths():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_workloads_are_the_four_the_runner_knows():
    workloads = _spec()["workloads"]
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_tables_match_the_code():
    spec = _spec()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


def test_limits():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
