"""The paper's figure shapes on a tiny ``reduction`` + ``pruning`` matrix.

``benchmarks/specs/paper.toml`` runs the two families at the paper's
convention; this runs them on one small archive dataset and checks the
orderings the figures rest on that do not depend on wall-clock time, with
the tolerances the figure benchmarks used.
"""

import numpy as np
import pytest

from repro.experiments import (
    EngineSpec,
    ExperimentSpec,
    ReducerSpec,
    ScaleSpec,
    run_experiment,
)
from repro.kinds import IndexKind

pytestmark = pytest.mark.experiments

ADAPTIVE = ("SAPLA", "APLA", "APCA")
EQUAL = ("PLA", "PAA", "SAX")
KS = (2, 8)

SPEC = ExperimentSpec(
    name="shapes",
    workloads=("reduction", "pruning"),
    scales=(ScaleSpec("ECG200", dataset="ECG200", length=64, n_series=24, n_queries=2),),
    reducers=tuple(
        ReducerSpec(method, 12)
        for method in ("SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "SAX")
    ),
    indexes=(IndexKind.NONE, IndexKind.RTREE, IndexKind.DBCH),
    engines=tuple(EngineSpec(k=k) for k in KS),
)


@pytest.fixture(scope="module")
def cells():
    summary = run_experiment(SPEC, bench_dir=None)
    assert summary.n_failed == 0
    return {
        (c["workload"], c["method"], c["index_kind"], c["engine"]): c["metrics"]
        for c in summary.cells
    }


def metric(cells, workload, method, index="none", k=KS[0], name="pruning_power"):
    return cells[(workload, method, index, f"k{k}-auto")][name]


def test_equal_length_methods_are_index_insensitive(cells):
    """Fig. 13: only the adaptive methods' pruning depends on the tree."""
    for method in EQUAL:
        for k in KS:
            rtree = metric(cells, "pruning", method, "rtree", k)
            dbch = metric(cells, "pruning", method, "dbch", k)
            assert abs(dbch - rtree) <= 0.3


def test_every_scan_and_rtree_answer_is_exact(cells):
    for (workload, _, index, _), metrics in cells.items():
        if workload == "pruning" and index in ("none", "rtree"):
            assert metrics["accuracy"] == 1.0


def test_node_counts_add_up(cells):
    """Figs. 15/16: every tree cell counts its internal and leaf nodes."""
    trees = [m for (w, _, index, _), m in cells.items() if w == "pruning" and index != "none"]
    assert len(trees) == 2 * len(SPEC.reducers) * len(KS)
    for metrics in trees:
        assert metrics["total_nodes"] == metrics["internal_nodes"] + metrics["leaf_nodes"]
        assert metrics["height"] >= 1
        assert 0.0 <= metrics["overlap"] <= 1.0
        assert 2.0 <= metrics["leaf_fill"] <= 5.0


def test_pruning_power_does_not_fall_as_k_grows(cells):
    def mean_at(k):
        return np.mean(
            [m["pruning_power"] for (w, _, _, e), m in cells.items() if w == "pruning" and e == f"k{k}-auto"]
        )

    assert mean_at(KS[1]) >= mean_at(KS[0]) - 0.05


def test_adaptive_methods_deviate_no_more_than_equal_length_ones(cells):
    """Fig. 12a, at the benchmarks' tolerance of 25 %."""
    deviation = {
        method: metric(cells, "reduction", method, name="max_deviation")
        for method in ("SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM")
    }
    adaptive = min(deviation[m] for m in ADAPTIVE)
    equal = min(deviation[m] for m in ("PLA", "PAA", "PAALM"))
    assert adaptive <= equal * 1.25


def test_adaptive_rtree_boxes_overlap_at_least_as_much(cells):
    """Sec. 5.2: homogeneous adaptive representations overlap in the R-tree."""
    overlap = {
        method: metric(cells, "pruning", method, "rtree", name="overlap")
        for method in ADAPTIVE + ("PLA", "PAA")
    }
    adaptive = np.mean([overlap[m] for m in ADAPTIVE])
    assert adaptive >= min(overlap["PLA"], overlap["PAA"]) - 0.05


def test_sax_reports_time_only_and_sapla_its_ablation_variants(cells):
    assert "max_deviation" not in cells[("reduction", "SAX", "none", "k2-auto")]
    sapla = cells[("reduction", "SAPLA", "none", "k2-auto")]
    for variant in ("exact_bounds", "no_endpoint_stage", "peak_split"):
        assert sapla[f"max_deviation.{variant}"] > 0.0
    assert metric(cells, "pruning", "SAPLA", name="par_accuracy") <= 1.0
    assert "par_accuracy" not in cells[("pruning", "PAA", "none", "k2-auto")]
