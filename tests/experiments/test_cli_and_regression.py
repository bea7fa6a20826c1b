"""CLI surface plus the acceptance path: an injected slowdown must land in
the run's BENCH file and make ``repro experiment diff`` exit non-zero naming
the violated threshold, while an unmodified run passes the same gates."""

import itertools
import json
import types

import pytest

from repro.cli import main
from repro.experiments import load_bench, spec_to_dict
from repro.experiments.workloads import WORKLOADS

pytestmark = pytest.mark.experiments


@pytest.fixture
def spec_file(tiny_spec, tmp_path):
    path = tmp_path / "tinyspec.json"
    path.write_text(json.dumps(spec_to_dict(tiny_spec)))
    return path


def run_spec(spec_file, tmp_path, bench_subdir):
    bench_dir = tmp_path / bench_subdir
    bench_dir.mkdir(exist_ok=True)
    code = main(
        [
            "experiment", "run", str(spec_file), "--bench-dir", str(bench_dir),
        ]
    )
    assert code == 0
    return bench_dir / "BENCH_tinyspec.json"


class TestCLI:
    def test_run_writes_bench_and_prints_cells(self, spec_file, tmp_path, capsys):
        bench_path = run_spec(spec_file, tmp_path, "base")
        out = capsys.readouterr().out
        assert "batch_knn cells" in out and "pruning cells" in out
        assert "4 trials, 0 skipped, 0 failed; recorded in" in out
        payload = load_bench(bench_path)
        assert payload["n_trials"] == 4

    def test_run_creates_a_missing_bench_dir(self, spec_file, tmp_path):
        bench_dir = tmp_path / "not" / "yet"
        code = main(
            [
                "experiment", "run", str(spec_file), "--bench-dir", str(bench_dir),
            ]
        )
        assert code == 0
        assert load_bench(bench_dir / "BENCH_tinyspec.json")["n_trials"] == 4

    def test_run_without_spec_exits(self):
        with pytest.raises(SystemExit, match="needs a spec file"):
            main(["experiment", "run"])

    def test_run_without_bench_dir_exits(self, spec_file):
        with pytest.raises(SystemExit, match="--bench-dir"):
            main(["experiment", "run", str(spec_file)])

    def test_diff_without_baseline_exits(self, spec_file):
        with pytest.raises(SystemExit, match="--baseline"):
            main(["experiment", "diff", str(spec_file)])

    def test_diff_without_current_exits(self, spec_file):
        with pytest.raises(SystemExit, match="--current"):
            main(["experiment", "diff", str(spec_file), "--baseline", "BENCH_tinyspec.json"])

    def test_only_run_and_diff(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "report"])
        assert "invalid choice: 'report'" in capsys.readouterr().err


@pytest.fixture
def ticking_clock(monkeypatch):
    """Replace the workloads' clock by one that advances 2**-10 s per reading.

    Every measured duration then depends only on how many clock readings it
    spans (a binary fraction, so the differences are exact), two runs of
    one spec report identical timing metrics, and the percentage gates
    compare exact numbers, never two wall-clock samples.
    """
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) / 1024.0)
    monkeypatch.setattr("repro.experiments.workloads.time", clock)


@pytest.mark.usefixtures("ticking_clock")
class TestRegressionGate:
    def test_unmodified_run_passes_gates(self, spec_file, tmp_path, capsys):
        baseline = run_spec(spec_file, tmp_path, "base")
        current = run_spec(spec_file, tmp_path, "current")  # identical second run
        assert load_bench(current)["cells"] == load_bench(baseline)["cells"]
        code = main(
            ["experiment", "diff", str(spec_file),
             "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 0
        assert "all gates pass" in capsys.readouterr().out

    def test_injected_slowdown_trips_the_gate(
        self, spec_file, tmp_path, capsys, monkeypatch
    ):
        baseline = run_spec(spec_file, tmp_path, "base")

        original = WORKLOADS["batch_knn"]

        def degraded(trial):
            metrics = dict(original(trial))
            for key in ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms"):
                metrics[key] *= 10.0  # a 10x latency regression
            return metrics

        monkeypatch.setitem(WORKLOADS, "batch_knn", degraded)
        current = run_spec(spec_file, tmp_path, "current")

        # the degraded value is what the current BENCH file records
        key = "batch_knn|tiny|PAA-4|none|k2-auto"
        before, after = (
            {c["cell"]: c for c in load_bench(path)["cells"]}[key]["metrics"]
            for path in (baseline, current)
        )
        assert before["latency_p50_ms"] > 0.0
        assert after["latency_p50_ms"] == pytest.approx(10.0 * before["latency_p50_ms"])

        code = main(
            ["experiment", "diff", str(spec_file),
             "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 1
        out = capsys.readouterr().out
        # the violation names the metric, the cell, and the threshold rule
        assert "gate violation" in out
        assert "latency_p50_ms" in out
        assert "violates max increase of 50%" in out
        assert "batch_knn|tiny|PAA-4|none|k2-auto" in out

    def test_diff_against_current_bench_file(self, spec_file, tmp_path, capsys):
        baseline = run_spec(spec_file, tmp_path, "base")
        code = main(
            ["experiment", "diff", str(spec_file),
             "--baseline", str(baseline),
             "--current", str(baseline)]  # a run never regresses against itself
        )
        assert code == 0
        assert "all gates pass" in capsys.readouterr().out

    def test_vanished_cell_fails_the_diff(self, spec_file, tmp_path, capsys):
        """A gated baseline cell that the current run no longer has (say a
        ``supports()`` change now skips it) is a violation, not a pass."""
        baseline = run_spec(spec_file, tmp_path, "base")
        payload = load_bench(baseline)
        payload["cells"] = [c for c in payload["cells"] if c["workload"] != "pruning"]
        current = tmp_path / "BENCH_vanished.json"
        current.write_text(json.dumps(payload))
        code = main(
            ["experiment", "diff", str(spec_file),
             "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "pruning|tiny|PAA-4|none|k2-auto: verified_ratio" in out
        assert "missing from the current run" in out
