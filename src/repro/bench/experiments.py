"""Experiment drivers: one function per paper table / figure.

Every function returns a list of row dicts that
:func:`repro.bench.reporting.print_table` renders as the same rows/series
the paper reports.  EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from ..core.sapla import SAPLA
from ..data.normalize import resample_to_length
from ..distance import dist_par_batch
from ..engine.states import gather_rows
from ..index.knn import KNNResult, SeriesDatabase, TopK, linear_scan
from ..kinds import IndexKind
from ..metrics.deviation import max_deviation, sum_of_segment_deviations
from ..reduction import REDUCERS
from ..reduction.base import Reducer
from .harness import ExperimentConfig

__all__ = [
    "make_reducer",
    "run_maxdev_and_time",
    "run_index_grid",
    "summarise_pruning_accuracy",
    "summarise_ingest_knn",
    "summarise_tree_shape",
    "run_scaling",
    "run_worked_example",
    "run_bound_ablation",
    "run_dbch_ablation",
    "dist_par_scan",
]

#: the worked series of paper Figs. 1, 5, 6, 8
WORKED_SERIES = np.array(
    [7, 8, 20, 15, 18, 8, 8, 15, 10, 1, 4, 3, 3, 5, 4, 9, 2, 9, 10, 10], dtype=float
)


def make_reducer(method: str, n_coefficients: int, **kwargs) -> Reducer:
    """Instantiate a reducer by its paper name."""
    return REDUCERS[method](n_coefficients=n_coefficients, **kwargs)


def _series_for(method: str, series: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Apply the documented APLA length cap (DESIGN.md substitution 3)."""
    if method == "APLA" and series.shape[0] > config.apla_max_length:
        return resample_to_length(series, config.apla_max_length)
    return series


# ----------------------------------------------------------------------
# Fig. 12: max deviation and dimensionality reduction time
# ----------------------------------------------------------------------
def run_maxdev_and_time(config: ExperimentConfig) -> "List[Dict]":
    """Rows of Fig. 12a (max deviation) and Fig. 12b (reduction CPU time).

    SAX is timed but excluded from max deviation, matching the paper.
    """
    rows: "List[Dict]" = []
    for m in config.coefficients:
        per_method: "Dict[str, Dict[str, list]]" = {
            name: {"dev": [], "time": []} for name in config.methods
        }
        for dataset in config.datasets():
            for method in config.methods:
                reducer = make_reducer(method, m)
                for series in dataset.data:
                    series = _series_for(method, series, config)
                    started = time.process_time()
                    representation = reducer.transform(series)
                    per_method[method]["time"].append(time.process_time() - started)
                    if method != "SAX":
                        recon = reducer.reconstruct(representation)
                        per_method[method]["dev"].append(max_deviation(series, recon))
        for method in config.methods:
            stats = per_method[method]
            rows.append(
                {
                    "M": m,
                    "method": method,
                    "max_deviation": float(np.mean(stats["dev"])) if stats["dev"] else float("nan"),
                    "reduction_time_s": float(np.mean(stats["time"])),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figs. 13-16: one pass over (dataset, method, M, index) producing the
# pruning power, accuracy, ingest time, k-NN time, and tree shape records
# ----------------------------------------------------------------------
def run_index_grid(config: ExperimentConfig) -> "List[Dict]":
    """Detailed records; the ``summarise_*`` helpers aggregate per figure."""
    records: "List[Dict]" = []
    for m in config.coefficients:
        for dataset in config.datasets():
            scan_data = dataset.data
            # linear-scan reference timing (Fig. 14b's last bar)
            for query in dataset.queries:
                started = time.process_time()
                linear_scan(scan_data, query, max(config.ks))
                records.append(
                    {
                        "M": m,
                        "dataset": dataset.name,
                        "method": "LinearScan",
                        "index": "none",
                        "kind": "knn",
                        "k": max(config.ks),
                        "knn_time_s": time.process_time() - started,
                        "pruning_power": 1.0,
                        "accuracy": 1.0,
                    }
                )
            for method in config.methods:
                reducer = make_reducer(method, m)
                data = np.array(
                    [_series_for(method, s, config) for s in dataset.data]
                )
                queries = np.array(
                    [_series_for(method, q, config) for q in dataset.queries]
                )
                started = time.process_time()
                representations = [reducer.transform(s) for s in data]
                reduction_time = time.process_time() - started
                for index_kind in (IndexKind.RTREE, IndexKind.DBCH):
                    db = SeriesDatabase(
                        reducer,
                        index=index_kind,
                        max_entries=config.max_entries,
                        min_entries=config.min_entries,
                    )
                    started = time.process_time()
                    db.ingest(data, representations=representations)
                    # ingest = reduce + insert (Fig. 14a); the reduction pass
                    # is shared between the two indexes, so it is added back
                    ingest_time = reduction_time + (time.process_time() - started)
                    counts = db.tree.node_counts()
                    records.append(
                        {
                            "M": m,
                            "dataset": dataset.name,
                            "method": method,
                            "index": index_kind,
                            "kind": "tree",
                            "ingest_time_s": ingest_time,
                            "internal_nodes": counts["internal"],
                            "leaf_nodes": counts["leaf"],
                            "total_nodes": counts["total"],
                            "height": db.tree.height,
                        }
                    )
                    for k in config.ks:
                        for query in queries:
                            truth = db.ground_truth(query, k)
                            started = time.process_time()
                            result = db.knn(query, k)
                            elapsed = time.process_time() - started
                            records.append(
                                {
                                    "M": m,
                                    "dataset": dataset.name,
                                    "method": method,
                                    "index": index_kind,
                                    "kind": "knn",
                                    "k": k,
                                    "knn_time_s": elapsed,
                                    "pruning_power": result.pruning_power,
                                    "accuracy": result.accuracy_against(truth),
                                }
                            )
    return records


def _mean_over(records: "List[Dict]", keys: "Sequence[str]", value: str) -> "List[Dict]":
    groups: "Dict[tuple, list]" = {}
    for rec in records:
        if value not in rec:
            continue
        groups.setdefault(tuple(rec[k] for k in keys), []).append(rec[value])
    return [
        {**dict(zip(keys, group)), value: float(np.mean(vals))}
        for group, vals in sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0])))
    ]


def summarise_pruning_accuracy(records: "List[Dict]") -> "List[Dict]":
    """Fig. 13: mean pruning power and accuracy per method and index."""
    knn = [r for r in records if r["kind"] == "knn" and r["method"] != "LinearScan"]
    pruning = _mean_over(knn, ("method", "index"), "pruning_power")
    accuracy = {(_r["method"], _r["index"]): _r["accuracy"] for _r in _mean_over(knn, ("method", "index"), "accuracy")}
    for row in pruning:
        row["accuracy"] = accuracy[(row["method"], row["index"])]
    return pruning


def summarise_ingest_knn(records: "List[Dict]") -> "List[Dict]":
    """Fig. 14: mean ingest time per method/index, k-NN time incl. linear scan."""
    trees = [r for r in records if r["kind"] == "tree"]
    ingest = _mean_over(trees, ("method", "index"), "ingest_time_s")
    knn = [r for r in records if r["kind"] == "knn"]
    knn_time = {
        (r["method"], r["index"]): r["knn_time_s"]
        for r in _mean_over(knn, ("method", "index"), "knn_time_s")
    }
    rows = []
    for row in ingest:
        rows.append({**row, "knn_time_s": knn_time[(row["method"], row["index"])]})
    rows.append(
        {
            "method": "LinearScan",
            "index": "none",
            "ingest_time_s": 0.0,
            "knn_time_s": knn_time[("LinearScan", "none")],
        }
    )
    return rows


def summarise_tree_shape(records: "List[Dict]") -> "List[Dict]":
    """Figs. 15, 16: average node counts and height per method and index."""
    trees = [r for r in records if r["kind"] == "tree"]
    rows = _mean_over(trees, ("method", "index"), "internal_nodes")
    for value in ("leaf_nodes", "total_nodes", "height"):
        merged = {
            (r["method"], r["index"]): r[value]
            for r in _mean_over(trees, ("method", "index"), value)
        }
        for row in rows:
            row[value] = merged[(row["method"], row["index"])]
    return rows


# ----------------------------------------------------------------------
# Table 1: empirical reduction-time scaling against series length
# ----------------------------------------------------------------------
def run_scaling(
    lengths: "Sequence[int]" = (64, 128, 256),
    methods: "Sequence[str]" = ("SAPLA", "APLA", "APCA", "PLA", "PAA"),
    n_coefficients: int = 12,
    repeats: int = 3,
    seed: int = 0,
) -> "List[Dict]":
    """Reduction CPU time per method across series lengths (Table 1's shape).

    The expected ordering: PAA/PLA (O(n)) fastest, APCA (O(n log n)) close,
    SAPLA (O(n(N + log n))) moderate, APLA (matrix-dominated) slowest and
    growing fastest with n.
    """
    rows: "List[Dict]" = []
    rng = np.random.default_rng(seed)
    for n in lengths:
        series_pool = [rng.normal(size=n).cumsum() for _ in range(repeats)]
        for method in methods:
            reducer = make_reducer(method, n_coefficients)
            started = time.process_time()
            for series in series_pool:
                reducer.transform(series)
            elapsed = (time.process_time() - started) / repeats
            rows.append({"n": n, "method": method, "reduction_time_s": elapsed})
    return rows


# ----------------------------------------------------------------------
# Fig. 1 / Figs. 5, 6, 8: the worked 20-point example
# ----------------------------------------------------------------------
def run_worked_example() -> "List[Dict]":
    """Max deviation of each method on the paper's 20-point series (M = 12).

    Paper values: SAPLA 9.27273 (after all stages; 10.6061 after split &
    merge), APCA 18.4167, PLA 19.3999, with SAPLA/APLA at N = 4 and
    APCA/PLA at N = 6.
    """
    rows = []
    for method in ("SAPLA", "APLA", "APCA", "PLA"):
        reducer = make_reducer(method, 12)
        representation = reducer.transform(WORKED_SERIES)
        recon = reducer.reconstruct(representation)
        rows.append(
            {
                "method": method,
                "N": representation.n_segments,
                "max_deviation": max_deviation(WORKED_SERIES, recon),
                "sum_segment_deviation": sum_of_segment_deviations(
                    WORKED_SERIES, representation
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablations (DESIGN.md design-choice benches)
# ----------------------------------------------------------------------
def run_bound_ablation(config: ExperimentConfig, n_coefficients: int = 12) -> "List[Dict]":
    """SAPLA variants: paper bounds vs exact deviations; endpoint stage on/off."""
    variants = {
        "paper-bounds": dict(bound_mode="paper", refine_endpoints=True),
        "exact-bounds": dict(bound_mode="exact", refine_endpoints=True),
        "no-endpoint-stage": dict(bound_mode="paper", refine_endpoints=False),
        "peak-split": dict(bound_mode="paper", refine_endpoints=True, split_mode="peak"),
    }
    rows = []
    n_segments = max(n_coefficients // 3, 1)
    for label, kwargs in variants.items():
        devs, times = [], []
        for dataset in config.datasets():
            pipeline = SAPLA(n_segments=n_segments, **kwargs)
            for series in dataset.data:
                started = time.process_time()
                rep = pipeline.transform(series)
                times.append(time.process_time() - started)
                devs.append(max_deviation(series, rep.reconstruct()))
        rows.append(
            {
                "variant": label,
                "max_deviation": float(np.mean(devs)),
                "reduction_time_s": float(np.mean(times)),
            }
        )
    return rows


def dist_par_scan(db: SeriesDatabase, query: np.ndarray, k: int) -> KNNResult:
    """k-NN by a filter-and-refine scan with the paper's Dist_PAR as the bound.

    Dist_PAR is not a lower bound for adaptive layouts (EXPERIMENTS.md
    deviation 1), so no database answers with it; the DBCH ablation measures
    the as-published bound here.  Rows of ``db``'s columnar store are bounded
    with :func:`repro.distance.dist_par_batch` against the query's own
    reduction, then verified in ``(bound, id)`` order until the next bound
    is strictly above the k-th best distance so far.
    """
    sids, columns = db.stacked_entries()
    bounds = dist_par_batch(db.reducer.transform(query), columns)
    best = TopK(k)
    verified = 0
    for row in np.lexsort((sids, bounds)):
        if best.full and bounds[row] > best.threshold:
            break
        sid = int(sids[row])
        distance = np.linalg.norm(gather_rows(db.data, [sid]) - query[None, :], axis=1)[0]
        best.offer(float(distance), sid)
        verified += 1
    ranked = best.ranked()
    return KNNResult(
        ids=[sid for _, sid in ranked],
        distances=[d for d, _ in ranked],
        n_verified=verified,
        n_total=len(sids),
    )


def run_dbch_ablation(config: ExperimentConfig, n_coefficients: int = 12) -> "List[Dict]":
    """The as-published Dist_PAR (a scan) vs Dist_LB (the DBCH-tree) as the
    SAPLA query bound: pruning power and accuracy against the exact k-NN."""
    searches = {
        ("Dist_PAR", "scan"): dist_par_scan,
        ("Dist_LB", "dbch"): SeriesDatabase.knn,
    }
    outcomes = {key: ([], []) for key in searches}
    for dataset in config.datasets():
        db = SeriesDatabase(make_reducer("SAPLA", n_coefficients), index=IndexKind.DBCH)
        db.ingest(dataset.data)
        for query in dataset.queries:
            for k in config.ks:
                truth = db.ground_truth(query, k)
                for key, search in searches.items():
                    result = search(db, query, k)
                    outcomes[key][0].append(result.pruning_power)
                    outcomes[key][1].append(result.accuracy_against(truth))
    return [
        {
            "query_bound": bound,
            "search": search,
            "pruning_power": float(np.mean(prunes)),
            "accuracy": float(np.mean(accs)),
        }
        for (bound, search), (prunes, accs) in outcomes.items()
    ]
