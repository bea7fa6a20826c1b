"""The committed specs' gates fail on exactly the bars they stand for.

Each spec under ``benchmarks/specs/`` is diffed against its committed
``BENCH_<spec>.json`` by a ``make verify-*`` target.  Gates are relative to
that baseline, so these tests replay a run that misses each bar — by
editing the baseline's own cells — and check that the right gate trips,
and that a run just on the bar passes.
"""

import copy
import pathlib

import pytest

from repro.experiments import evaluate_gates, load_bench, load_spec

pytestmark = pytest.mark.experiments

REPO = pathlib.Path(__file__).resolve().parents[2]


def tripped(name: str, **metrics) -> "list[str]":
    """Gate metrics violated by the baseline with ``metrics`` overwritten."""
    spec = load_spec(REPO / "benchmarks" / "specs" / f"{name}.toml")
    baseline = load_bench(REPO / f"BENCH_{name}.json")["cells"]
    current = copy.deepcopy(baseline)
    for cell in current:
        cell["metrics"].update(metrics)
    return sorted({v.rule.metric for v in evaluate_gates(spec, baseline, current)})


@pytest.mark.parametrize("name", ["batch_knn", "ingest", "serving", "continuous", "paper"])
def test_the_baseline_passes_its_own_gates(name):
    assert tripped(name) == []


@pytest.mark.parametrize("name", ["batch_knn", "serving", "continuous"])
def test_a_differing_answer_fails(name):
    assert tripped(name, results_identical=0.0) == ["results_identical"]


def test_serving_fails_below_1000_in_flight():
    assert tripped("serving", inflight_peak=1000.0) == []
    assert tripped("serving", inflight_peak=999.0) == ["inflight_peak"]


def test_continuous_fails_below_100_live_subscriptions():
    assert tripped("continuous", subscriptions=100.0) == []
    assert tripped("continuous", subscriptions=99.0) == ["subscriptions"]


def test_continuous_fails_when_a_mutation_phase_pushes_no_delta():
    assert tripped("continuous", delta_phases=1.0) == ["delta_phases"]


def test_batch_knn_fails_below_3x_on_the_scan():
    assert tripped("batch_knn", speedup=3.0) == []
    assert tripped("batch_knn", speedup=2.99) == ["speedup"]


def test_ingest_fails_when_a_wal_changes_size():
    spec_cells = load_bench(REPO / "BENCH_ingest.json")["cells"]
    logged = max(cell["metrics"]["wal_bytes"] for cell in spec_cells)
    assert tripped("ingest", wal_bytes=logged - 1) == ["wal_bytes"]
    assert tripped("ingest", wal_bytes=1.0) == ["wal_bytes"]


def test_paper_gates_only_what_repeats_exactly():
    """A wall-clock gate would fail the ten-minute run on a noisy machine;
    the paper spec gates deviations, pruning, accuracy and tree size."""
    spec = load_spec(REPO / "benchmarks" / "specs" / "paper.toml")
    assert [r.metric for r in spec.gates if r.metric.endswith(("_ms", "_s", "qps"))] == []
    assert tripped("paper", accuracy=0.99) == ["accuracy"]
    assert tripped("paper", total_nodes=1e6) == ["total_nodes"]
