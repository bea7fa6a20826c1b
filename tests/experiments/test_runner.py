"""Runner end-to-end: trials execute and BENCH_* is written."""

import pytest

from repro import obs
from repro.experiments import (
    BENCH_SCHEMA_VERSION,
    ExperimentSpec,
    ReducerSpec,
    derive_bound_ratios,
    expand,
    load_bench,
    run_experiment,
    run_trial,
    summarise_cells,
)
from repro.experiments.workloads import WORKLOADS
from repro.kinds import IndexKind
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder

from .conftest import TINY_SCALE

pytestmark = pytest.mark.experiments


@pytest.fixture(autouse=True)
def clean_obs_state():
    prev_reg = obs.set_registry(MetricsRegistry(enabled=False))
    prev_rec = obs.set_recorder(SpanRecorder(enabled=False))
    yield
    obs.set_registry(prev_reg)
    obs.set_recorder(prev_rec)


class TestRunTrial:
    def test_batch_knn_metrics_and_isolation(self, tiny_spec):
        caller_registry = obs.registry()
        caller_registry.enabled = True
        derived, elapsed = run_trial(expand(tiny_spec)[0])
        # the caller's obs state is untouched: the trial counted into its own
        assert obs.registry() is caller_registry
        assert caller_registry.snapshot()["counters"] == {}
        assert elapsed > 0.0
        for key in ("sequential_qps", "batched_qps", "speedup",
                    "latency_p50_ms", "latency_p90_ms", "latency_p99_ms"):
            assert derived[key] > 0.0
        assert derived["results_identical"] == 1.0

    def test_pruning_trial_gains_bound_ratios(self, tiny_spec):
        trial = expand(tiny_spec)[2]  # the pruning cell
        derived, _ = run_trial(trial)
        assert 0.0 <= derived["pruning_power"] <= 1.0
        assert 0.0 <= derived["accuracy"] <= 1.0
        assert 0.0 < derived["verified_ratio"] <= 1.0


class TestSummariseCells:
    def test_one_wrong_repeat_fails_the_cell(self, tiny_spec):
        """Three repeats, one of which served a wrong answer: the cell reads
        0, while its timings stay the median over repeats."""
        cell = expand(tiny_spec)[0].cell_key
        (row,) = summarise_cells(
            tiny_spec,
            {cell: {"results_identical": [1.0, 0.0, 1.0], "speedup": [2.0, 9.0, 4.0]}},
        )
        assert row["repeats"] == 3
        assert row["metrics"] == {"results_identical": 0.0, "speedup": 4.0}


class TestDeriveBoundRatios:
    def test_ratios_sum_to_one(self):
        with obs.capture():
            obs.count("knn.entries_refined", 25)
            obs.count("knn.pruned.aligned", 50)
            obs.count("knn.pruned.dist_lb", 25)
            counters = obs.registry().snapshot()["counters"]
        ratios = derive_bound_ratios(counters)
        assert ratios["verified_ratio"] == 0.25
        assert ratios["pruned_ratio.aligned"] == 0.5
        assert ratios["pruned_ratio.lb"] == 0.25

    def test_empty_without_counters(self):
        assert derive_bound_ratios({}) == {}


class TestRunExperiment:
    def test_end_to_end(self, tiny_spec, tmp_path):
        summary = run_experiment(tiny_spec, bench_dir=tmp_path)
        assert summary.n_trials == 4 and summary.n_failed == 0
        assert summary.bench_path == tmp_path / "BENCH_tinyspec.json"

        payload = load_bench(summary.bench_path)
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["spec"]["name"] == "tinyspec"
        assert (payload["n_trials"], payload["n_skipped"], payload["n_failed"]) == (4, 0, 0)
        assert "experiment_id" not in payload
        cells = {cell["cell"]: cell for cell in payload["cells"]}
        assert len(cells) == 2
        batch = cells["batch_knn|tiny|PAA-4|none|k2-auto"]
        assert batch["repeats"] == 2
        assert batch["metrics"]["latency_p99_ms"] > 0.0
        pruning = cells["pruning|tiny|PAA-4|none|k2-auto"]
        assert 0.0 < pruning["metrics"]["verified_ratio"] <= 1.0
        assert payload["cells"] == summary.cells

    def test_unsupported_cells_are_skipped(self):
        spec = ExperimentSpec(
            name="skips",
            workloads=("ingest",),
            scales=(TINY_SCALE,),
            reducers=(ReducerSpec("PAA", 4),),
            indexes=(IndexKind.NONE,),  # ingest needs an index
        )
        summary = run_experiment(spec, bench_dir=None)
        assert summary.n_trials == 0 and summary.n_skipped == 1
        assert summary.bench_path is None

    def test_failures_recorded_not_fatal(self, tiny_spec, tmp_path, monkeypatch):
        def boom(trial):
            raise RuntimeError("injected")

        monkeypatch.setitem(WORKLOADS, "pruning", boom)
        summary = run_experiment(tiny_spec, bench_dir=tmp_path)
        assert summary.n_trials == 2 and summary.n_failed == 2
        payload = load_bench(summary.bench_path)
        assert (payload["n_trials"], payload["n_failed"]) == (2, 2)
        # failed cells never reach the BENCH summary
        assert [cell["workload"] for cell in payload["cells"]] == ["batch_knn"]
