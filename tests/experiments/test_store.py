"""ResultsStore round-trips, schema guard, exports."""

import json
import sqlite3

import pytest

from repro import obs
from repro.experiments import (
    STORE_SCHEMA_VERSION,
    ResultsStore,
    environment_facts,
    expand,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.spans import SpanRecorder

pytestmark = pytest.mark.experiments


@pytest.fixture(autouse=True)
def clean_obs_state():
    prev_reg = obs.set_registry(MetricsRegistry(enabled=False))
    prev_rec = obs.set_recorder(SpanRecorder(enabled=False))
    yield
    obs.set_registry(prev_reg)
    obs.set_recorder(prev_rec)


def sample_report() -> RunReport:
    with obs.capture():
        obs.count("knn.queries", 3)
        obs.count("knn.entries_refined", 6)
        obs.count("knn.pruned.aligned", 18)
        obs.observe("knn.verified_per_query", 2.0)
        return RunReport.collect(meta={"origin": "test"})


class TestRoundTrip:
    def test_experiment_and_trial_rows(self, tiny_spec, tmp_path):
        trial = expand(tiny_spec)[0]
        with ResultsStore(tmp_path / "s.sqlite") as store:
            experiment_id = store.create_experiment(tiny_spec)
            trial_id = store.record_trial(
                experiment_id,
                trial,
                sample_report(),
                {"latency_p50_ms": 1.25},
                elapsed_s=0.5,
            )
            rows = store.trials(experiment_id)
            assert len(rows) == 1
            row = rows[0]
            assert row["cell_key"] == trial.cell_key
            assert row["status"] == "ok"
            assert row["elapsed_s"] == 0.5
            assert json.loads(row["report_json"])["meta"]["origin"] == "test"

            metrics = store.trial_metrics(trial_id)
            assert metrics["latency_p50_ms"] == 1.25
            assert metrics["knn.queries"] == 3.0
            assert metrics["knn.verified_per_query/p50"] == 2.0

    def test_cell_metrics_groups_repeats(self, tiny_spec, tmp_path):
        trials = expand(tiny_spec)[:2]  # two repeats of one cell
        with ResultsStore(tmp_path / "s.sqlite") as store:
            experiment_id = store.create_experiment(tiny_spec)
            for value, trial in zip((1.0, 3.0), trials):
                store.record_trial(
                    experiment_id, trial, sample_report(), {"speedup": value}
                )
            per_cell = store.cell_metrics(experiment_id)
            assert per_cell[trials[0].cell_key]["speedup"] == [1.0, 3.0]

    def test_environment_recorded(self, tiny_spec, tmp_path):
        with ResultsStore(tmp_path / "s.sqlite") as store:
            experiment_id = store.create_experiment(tiny_spec)
            env = store.environment(experiment_id)
        assert env == environment_facts()

    def test_latest_experiment_by_name(self, tiny_spec, tmp_path):
        with ResultsStore(tmp_path / "s.sqlite") as store:
            first = store.create_experiment(tiny_spec)
            second = store.create_experiment(tiny_spec)
            assert second > first
            assert store.latest_experiment("tinyspec")["id"] == second
            assert store.latest_experiment("missing") is None


class TestSchemaGuard:
    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.sqlite"
        ResultsStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE schema_info SET version = ?", (STORE_SCHEMA_VERSION + 1,))
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema v"):
            ResultsStore(path)

