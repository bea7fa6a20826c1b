"""Workload families: what each trial builds and what its checks cover."""

import pytest

from repro.continuous.watches import RangeEvaluation
from repro.experiments import EngineSpec, ReducerSpec, ScaleSpec, TrialSpec
from repro.experiments import workloads
from repro.experiments.workloads import make_trial_data, run_batch_knn, run_continuous
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import REDUCERS

pytestmark = pytest.mark.experiments


def _trial(workload, scale, reducer, index_kind, engine):
    return TrialSpec(
        index=0,
        workload=workload,
        scale=scale,
        reducer=reducer,
        index_kind=index_kind,
        engine=engine,
        repeat=0,
        seed=3,
    )


def test_dbch_trial_measures_the_bulk_packed_tree(monkeypatch):
    built = []

    class Recording(SeriesDatabase):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(workloads, "SeriesDatabase", Recording)
    trial = _trial(
        "batch_knn",
        ScaleSpec("t", length=32, n_series=64, n_queries=2),
        ReducerSpec("SAPLA", 6),
        IndexKind.DBCH,
        EngineSpec(k=2),
    )
    run_batch_knn(trial)

    data, _ = make_trial_data(trial)
    packed = SeriesDatabase(REDUCERS["SAPLA"](n_coefficients=6), index=IndexKind.DBCH)
    packed.ingest(data, bulk=True)
    (db,) = built
    assert db.tree.node_counts() == packed.tree.node_counts()
    assert db.tree.height == packed.tree.height


# 12 subscriptions over 3 queries: every query has one range watch (i = 3,
# 7, 11), and each deleted row is a near copy inside some watch's radius
CONTINUOUS = _trial(
    "continuous",
    ScaleSpec("t", length=32, n_series=24, n_queries=3, n_inserts=16, n_subscriptions=12),
    ReducerSpec("PAA", 4),
    IndexKind.NONE,
    EngineSpec(k=3),
)


def test_continuous_checks_range_frontiers_and_deletes_against_scratch():
    metrics = run_continuous(CONTINUOUS)
    assert metrics["results_identical"] == 1.0
    assert metrics["subscriptions"] == 12.0
    assert metrics["delta_phases"] == 2.0


def test_a_range_frontier_that_keeps_a_deleted_id_is_caught(monkeypatch):
    monkeypatch.setattr(RangeEvaluation, "on_delete", lambda self, gid: None)
    assert run_continuous(CONTINUOUS)["results_identical"] == 0.0
