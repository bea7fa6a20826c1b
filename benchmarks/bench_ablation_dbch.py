"""Ablation — SAPLA query bound: Dist_PAR vs Dist_LB (DESIGN.md).

The paper argues the DBCH-tree depends on the tightness of its distance
measure; filtering with the looser Dist_LB should verify at least as many
raw series (worse pruning power) while keeping accuracy.  Dist_LB is the
database's own bound (DBCH-tree); the as-published Dist_PAR, which is not a
lower bound, is measured by a filter-and-refine scan (``dist_par_scan``).
"""

import numpy as np

from repro.bench import run_dbch_ablation
from repro.bench.harness import ExperimentConfig
from repro.distance import dist_par
from repro.reduction import SAPLAReducer

from conftest import publish_table


def test_ablation_dbch_query_bound(benchmark, config, bench_report):
    cfg = ExperimentConfig(
        dataset_names=tuple(config.dataset_names[:4]),
        length=min(config.length, 256),
        n_series=min(config.n_series, 16),
        n_queries=2,
        ks=(4,),
    )
    with bench_report("ablation_dbch"):
        rows = run_dbch_ablation(cfg)
    publish_table("ablation_dbch", "Ablation — DBCH query bound", rows)
    by = {r["query_bound"]: r for r in rows}

    assert 0.0 <= by["Dist_PAR"]["pruning_power"] <= 1.0
    assert 0.0 <= by["Dist_LB"]["pruning_power"] <= 1.0
    # the guaranteed bound keeps accuracy high
    assert by["Dist_LB"]["accuracy"] >= 0.6

    reducer = SAPLAReducer(12)
    rng = np.random.default_rng(5)
    rep_a = reducer.transform(rng.normal(size=cfg.length).cumsum())
    rep_b = reducer.transform(rng.normal(size=cfg.length).cumsum())
    benchmark(dist_par, rep_a, rep_b)
