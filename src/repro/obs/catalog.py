"""Canonical catalogue of every metric and span name the codebase emits.

Instrumented call sites must use names declared here — the
``scripts/check_metric_names.py`` lint walks ``src/repro`` and fails on any
literal metric name that is missing from this catalogue.  Keeping the
catalogue in one flat module gives three things: a single place to read what
a number means, a machine-checkable contract between instrumentation and
reports, and stable names for downstream trajectory files (``BENCH_*.json``).

Naming convention: dotted lowercase paths, ``<subsystem>.<event>`` or
``<subsystem>.<stage>.<event>``.  Counters count events, gauges hold a last
value, histograms record per-observation distributions (count/sum/min/max),
and spans time regions of code.
"""

from __future__ import annotations

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "SPAN",
    "CATALOG",
    "PRUNED_METRICS",
    "kind_of",
    "describe",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
SPAN = "span"

#: name -> (kind, one-line description); the single source of truth.
CATALOG: "dict[str, tuple[str, str]]" = {
    # ------------------------------------------------------------------ k-NN
    "knn.queries": (COUNTER, "k-NN and range queries answered"),
    "knn.nodes_visited": (COUNTER, "index nodes expanded during best-first search"),
    "knn.nodes_pruned": (COUNTER, "index nodes enqueued but never expanded"),
    "knn.entries_refined": (COUNTER, "leaf entries verified against raw data"),
    "knn.heap_pushes": (COUNTER, "frontier priority-queue pushes"),
    "knn.pruned.dist_lb": (COUNTER, "candidates pruned by the Dist_LB bound"),
    "knn.pruned.aligned": (COUNTER, "candidates pruned by an aligned equal-length bound"),
    "knn.pruned.triangle": (COUNTER, "candidates pruned by the CHEBY triangle bound"),
    "knn.pruned.mindist": (COUNTER, "candidates pruned by the SAX MINDIST bound"),
    "knn.verified_per_query": (HISTOGRAM, "raw verifications needed by one query"),
    # ------------------------------------------------------------- engine
    "engine.batches": (COUNTER, "knn_batch and range_batch invocations"),
    "engine.rounds": (COUNTER, "vectorised verification rounds executed"),
    "engine.pairs_verified": (COUNTER, "(query, candidate) pairs resolved in batched verification"),
    "engine.timeouts": (COUNTER, "queries finalised early by a batch deadline"),
    "engine.batch_size": (HISTOGRAM, "queries per knn_batch / range_batch call"),
    # ----------------------------------------------------------- DBCH-tree
    "dbch.inserts": (COUNTER, "entries inserted into a DBCH-tree"),
    "dbch.deletes": (COUNTER, "entries deleted from a DBCH-tree"),
    "dbch.splits": (COUNTER, "DBCH node splits on overflow"),
    "dbch.hull_recomputations": (COUNTER, "covering-pair (hull) recomputations"),
    "dbch.leaf_fill": (GAUGE, "mean entries per DBCH leaf after the last build"),
    # -------------------------------------------------------------- R-tree
    "rtree.inserts": (COUNTER, "entries inserted into an R-tree"),
    "rtree.deletes": (COUNTER, "entries deleted from an R-tree"),
    "rtree.splits": (COUNTER, "R-tree node splits on overflow"),
    "rtree.mbr_recomputations": (COUNTER, "bounding-box recomputations"),
    "rtree.leaf_fill": (GAUGE, "mean entries per R-tree leaf after the last build"),
    # --------------------------------------------------------------- SAPLA
    "sapla.transforms": (COUNTER, "series reduced by the SAPLA pipeline"),
    "sapla.split_merge.rounds": (COUNTER, "split&merge probe rounds executed"),
    "sapla.split_merge.merges": (COUNTER, "adjacent-pair merges applied"),
    "sapla.split_merge.splits": (COUNTER, "segment splits applied"),
    "sapla.endpoint.moves": (COUNTER, "endpoint moves accepted in stage 3"),
    "sapla.area_evaluations": (COUNTER, "Reconstruction Area evaluations"),
    "sapla.segment_count": (HISTOGRAM, "segments per reduced series"),
    # ----------------------------------------------------------- reduction
    "reduce.batch_calls": (COUNTER, "transform_batch invocations"),
    "reduce.batch_rows": (COUNTER, "series reduced through the batch path"),
    "reduce.scalar_fallback": (COUNTER, "batch rows reduced by the per-row fallback loop"),
    # ----------------------------------------------------------- distances
    "dist.par.calls": (
        COUNTER,
        "Dist_PAR evaluations: scalar calls plus rows bounded per batch pass",
    ),
    "dist.lb.calls": (
        COUNTER,
        "Dist_LB evaluations: scalar calls plus rows bounded per batch pass",
    ),
    "dist.euclidean.exact": (COUNTER, "exact raw-series Euclidean fallbacks"),
    # -------------------------------------------------------- bound cascade
    "cascade.queries": (COUNTER, "queries answered through the bound cascade"),
    "cascade.cheap_bounds": (COUNTER, "cheap dominated-tier bound evaluations"),
    "cascade.refines": (COUNTER, "cascade items refined to their exact bound"),
    "cascade.entries_skipped": (COUNTER, "entry bounds never refined past the cheap tier"),
    "cascade.pairwise_skipped": (COUNTER, "DBCH build pairwise evaluations skipped by the accelerator"),
    # ------------------------------------------------------------- storage
    "storage.page_reads": (COUNTER, "physical page reads from the backing file"),
    "storage.page_writes": (COUNTER, "physical page writes to the backing file"),
    "storage.cache_hits": (COUNTER, "page reads served by the LRU cache"),
    "pages.batch_reads": (COUNTER, "batched multi-row reads through the page cache"),
    "columns.builds": (COUNTER, "memory maps of a page file's row region"),
    "columns.gathers": (COUNTER, "bulk row gathers served by a page file's memory map"),
    # ----------------------------------------------------------- lifecycle
    "db.inserts": (COUNTER, "series inserted into a mutable database"),
    "db.deletes": (COUNTER, "series tombstoned in a mutable database"),
    "wal.appends": (COUNTER, "records appended to a write-ahead log"),
    "wal.bytes_written": (COUNTER, "bytes appended to a write-ahead log"),
    "wal.fsyncs": (COUNTER, "fsync calls issued by the write-ahead log"),
    "wal.checkpoints": (COUNTER, "checkpoint markers appended to a WAL"),
    "wal.records_replayed": (COUNTER, "committed WAL records decoded during replay"),
    "wal.torn_bytes": (COUNTER, "bytes dropped from torn WAL tails"),
    "recovery.runs": (COUNTER, "crash-recovery passes executed on open"),
    "recovery.replayed_inserts": (COUNTER, "insert records re-applied by recovery"),
    "recovery.replayed_deletes": (COUNTER, "delete records re-applied by recovery"),
    "recovery.skipped_records": (COUNTER, "WAL records recovery skipped as already folded"),
    "compaction.runs": (COUNTER, "compaction passes executed"),
    "compaction.rows_dropped": (COUNTER, "tombstoned rows dropped by compaction"),
    "compaction.reclaimed_bytes": (COUNTER, "raw data bytes reclaimed by compaction"),
    # ------------------------------------------------------------- serving
    "server.requests": (COUNTER, "request frames dispatched by the TCP server"),
    "server.shed": (COUNTER, "queries shed by admission control (queue full)"),
    "server.errors": (COUNTER, "requests answered with an error envelope"),
    "server.connections": (COUNTER, "TCP connections accepted by the server"),
    "server.in_flight": (GAUGE, "accepted queries currently waiting or executing"),
    "server.request_ms": (HISTOGRAM, "milliseconds from admission to response per query request"),
    "shard.batches": (COUNTER, "scatter-gather batches executed by a sharded engine"),
    "shard.queries": (COUNTER, "per-shard query executions (queries x shards searched)"),
    "shard.count": (GAUGE, "shards behind the last scatter-gather batch"),
    "shard.merge_ms": (HISTOGRAM, "milliseconds merging per-shard answers per batch"),
    # ---------------------------------------------------------- continuous
    "continuous.subscriptions": (GAUGE, "standing subscriptions currently registered"),
    "continuous.notifications": (COUNTER, "notification deltas delivered to subscription sinks"),
    "continuous.delta_evals": (COUNTER, "subscription re-evaluations answered incrementally"),
    "continuous.full_reruns": (COUNTER, "subscription re-evaluations that fell back to a full re-run"),
    "continuous.dropped": (COUNTER, "notifications dropped by per-subscription backpressure"),
    "continuous.notify_ms": (HISTOGRAM, "milliseconds from mutation arrival to notification delivery"),
    # --------------------------------------------------------- experiments
    "experiments.trials": (COUNTER, "experiment trials executed by the runner"),
    "experiments.trials_skipped": (COUNTER, "matrix cells skipped as unsupported by their workload"),
    "experiments.trial_failures": (COUNTER, "experiment trials that raised and were recorded failed"),
    "experiments.gate_violations": (COUNTER, "threshold rules violated by the last experiment diff"),
    "experiments.trial_wall_s": (HISTOGRAM, "wall seconds per recorded experiment trial"),
    # --------------------------------------------------------------- spans
    "continuous.evaluate": (SPAN, "re-evaluate every standing subscription after one mutation"),
    "continuous.replay": (SPAN, "replay a subscription log into registry state"),
    "cli.knn": (SPAN, "whole `repro knn` command"),
    "cli.subscribe": (SPAN, "whole `repro subscribe` command"),
    "cli.serve": (SPAN, "whole `repro serve` command (bind to shutdown)"),
    "cli.shard": (SPAN, "whole `repro shard` command"),
    "cli.ingest": (SPAN, "whole `repro ingest` command"),
    "cli.checkpoint": (SPAN, "whole `repro checkpoint` command"),
    "cli.compact": (SPAN, "whole `repro compact` command"),
    "wal.replay": (SPAN, "decode every committed record of a WAL file"),
    "lifecycle.recover": (SPAN, "replay committed WAL records into a reopened database"),
    "lifecycle.checkpoint": (SPAN, "persist state and truncate the WAL"),
    "lifecycle.compact": (SPAN, "rewrite rows dropping tombstones and rebuild the index"),
    "experiments.run": (SPAN, "whole experiment-matrix execution"),
    "experiments.trial": (SPAN, "one recorded trial of an experiment matrix"),
    "db.ingest": (SPAN, "reduce + index every row of a collection"),
    "knn.search": (SPAN, "one filter-and-refine k-NN query"),
    "engine.knn_batch": (SPAN, "one batched k-NN execution"),
    "engine.range_batch": (SPAN, "one batched range-query execution"),
    "knn.ground_truth": (SPAN, "one exact linear-scan reference query"),
    "reduce.batch": (SPAN, "batch-reduce every row of one matrix"),
    "sapla.transform": (SPAN, "full three-stage SAPLA reduction of one series"),
    "sapla.initialize": (SPAN, "SAPLA stage 1 — single-scan initialization"),
    "sapla.split_merge": (SPAN, "SAPLA stage 2 — split & merge iteration"),
    "sapla.endpoint_movement": (SPAN, "SAPLA stage 3 — endpoint movement"),
}

#: distance-suite mode -> the pruning counter that mode's bound feeds
#: (keeps dynamically-selected names inside the catalogue contract).
PRUNED_METRICS: "dict[str, str]" = {
    "lb": "knn.pruned.dist_lb",
    "aligned": "knn.pruned.aligned",
    "triangle": "knn.pruned.triangle",
    "mindist": "knn.pruned.mindist",
}


def kind_of(name: str) -> str:
    """The declared kind of ``name``; raises ``KeyError`` when undeclared."""
    return CATALOG[name][0]


def describe(name: str) -> str:
    """The declared one-line description of ``name``."""
    return CATALOG[name][1]
