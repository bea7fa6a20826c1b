"""The benchmark's metric vocabulary: names, units, directions and bounds.

``BENCHMARK.json`` at the repo root repeats these tables for the driver;
``tests/test_contract.py`` keeps the two in step.  Every run prints every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``),
whatever the workload: a layer a workload does not exercise reports 0 work
and 0 time, which is the prediction "must not move" in checkable form.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

import numpy as np


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by
    what: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str


#: What a caller of the system pays, defined so that it exists — and is never
#: zero — on every workload.  The per-workload meaning is in ``what``.
END_TO_END: "List[EndToEnd]" = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "generated arrays -> first answer returned (reduce, build, save, shard, "
        "server start, subscribe, first cold query/insert); median of the run's set-ups",
    ),
    EndToEnd(
        "query_p50_ms", "ms", "lower", 0.25,
        "one blocking single-query exact k-NN call as the workload's caller makes it: "
        "Client.knn in process (knn_scan, knn_tree), TcpClient.knn unloaded (serve_tcp), "
        "Client.knn issued right after a write (ingest_mixed); quietest quarter of the phase",
    ),
    EndToEnd("query_p90_ms", "ms", "lower", 0.25, "tail of the same calls, same quarter rule"),
    EndToEnd(
        "throughput_per_s", "1/s", "higher", 0.25,
        "work completed per second in the workload's bulk phase: queries/s over "
        "32-query Client.knn calls (knn_scan, knn_tree), replies/s with 32 requests "
        "in flight (serve_tcp), (inserts + reads)/s (ingest_mixed); best call / repeat / quarter",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "peak resident memory of the benchmark process plus the server subprocess",
    ),
]

_L = Layer
PER_LAYER: "List[Layer]" = [
    # client: the facade in front of every backend
    _L("client.request_build_ms", "ms", "lower"),
    _L("client.encode_ms", "ms", "lower"),
    _L("client.decode_ms", "ms", "lower"),
    _L("client.insert_p50_ms", "ms", "lower"),
    _L("client.insert_p95_ms", "ms", "lower"),
    # serving: codec, scatter, admission and the process itself
    _L("serving.request_decode_ms", "ms", "lower"),
    _L("serving.reply_encode_ms", "ms", "lower"),
    _L("serving.request_bytes", "B", "lower"),
    _L("serving.reply_bytes", "B", "lower"),
    _L("serving.scatter_overhead_ms", "ms", "lower"),
    _L("serving.service_ms", "ms", "lower"),
    _L("serving.queue_share", "ratio", "lower"),
    _L("serving.server_request_ms_p50", "ms", "lower"),
    _L("serving.peak_in_flight", "count", "lower"),
    _L("serving.shed", "count", "lower"),
    _L("serving.errors", "count", "lower"),
    _L("serving.startup_s", "s", "lower"),
    _L("serving.rtt_p99_ms", "ms", "lower"),
    _L("serving.load_p50_ms", "ms", "lower"),
    _L("serving.load_p99_ms", "ms", "lower"),
    # reduction
    _L("reduction.query_transform_ms", "ms", "lower"),
    _L("reduction.transform_batch_s_per_krow", "s/krow", "lower"),
    _L("reduction.insert_transform_ms", "ms", "lower"),
    # engine: the query state machine driven from outside
    _L("engine.knn_batch_ms", "ms", "lower"),
    _L("engine.plan_ms", "ms", "lower"),
    _L("engine.advance_ms", "ms", "lower"),
    _L("engine.verify_ms", "ms", "lower"),
    _L("engine.feed_ms", "ms", "lower"),
    _L("engine.rounds_per_query", "count", "lower"),
    _L("engine.candidates_per_query", "count", "lower"),
    _L("engine.verified_per_query", "count", "lower"),
    _L("engine.verified_ratio", "ratio", "lower"),
    _L("engine.recall", "ratio", "higher"),
    _L("engine.batch_speedup", "ratio", "higher"),
    _L("engine.read_idle_ms", "ms", "lower"),
    _L("engine.read_after_write_ms", "ms", "lower"),
    _L("engine.cache_rebuild_ms", "ms", "lower"),
    # distance
    _L("distance.query_bound_us", "us", "lower"),
    _L("distance.cheap_key_us", "us", "lower"),
    _L("distance.bound_tightness", "ratio", "higher"),
    _L("distance.pairwise_us", "us", "lower"),
    # index
    _L("index.build_s", "s", "lower"),
    _L("index.nodes", "count", "lower"),
    _L("index.height", "count", "lower"),
    _L("index.node_distance_us", "us", "lower"),
    _L("index.nodes_visited_per_query", "count", "lower"),
    _L("index.heap_pushes_per_query", "count", "lower"),
    _L("index.insert_ms", "ms", "lower"),
    # storage / io
    _L("storage.gather_ms", "ms", "lower"),
    _L("storage.columns_build_ms", "ms", "lower"),
    _L("io.save_s", "s", "lower"),
    _L("io.open_s", "s", "lower"),
    _L("io.representation_bytes_per_row", "B", "lower"),
    _L("io.stored_bytes_per_user_byte", "ratio", "lower"),
    # lifecycle / continuous
    _L("lifecycle.wal_append_ms", "ms", "lower"),
    _L("lifecycle.wal_bytes_per_user_byte", "ratio", "lower"),
    _L("lifecycle.recover_s", "s", "lower"),
    _L("lifecycle.recover_ms_per_record", "ms", "lower"),
    _L("lifecycle.checkpoint_s", "s", "lower"),
    _L("continuous.delta_ms", "ms", "lower"),
    _L("continuous.notifications", "count", "lower"),
    # the process and the trace itself
    _L("process.peak_rss_mb", "MB", "lower"),
    _L("trace.unattributed_share", "ratio", "lower"),
    _L("trace.overhead_share", "ratio", "lower"),
]

#: metrics that are counts of work, not times: two runs on one seed must agree exactly
EXACT_COUNTS = (
    "engine.rounds_per_query",
    "engine.candidates_per_query",
    "engine.verified_per_query",
    "engine.verified_ratio",
    "engine.recall",
    "index.nodes",
    "index.height",
    "index.nodes_visited_per_query",
    "index.heap_pushes_per_query",
    "serving.request_bytes",
    "serving.reply_bytes",
    "serving.shed",
    "serving.errors",
    "lifecycle.wal_bytes_per_user_byte",
    "io.stored_bytes_per_user_byte",
    "io.representation_bytes_per_row",
    "continuous.notifications",
    "distance.bound_tightness",
)


def percentile(samples: "Sequence[float]", q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``samples``."""
    return float(np.percentile(samples, q))


def median(samples: "Sequence[float]") -> float:
    return float(statistics.median(samples))


def mean(samples: "Sequence[float]") -> float:
    return float(statistics.fmean(samples)) if samples else 0.0


#: The host is a shared VM whose speed drops by up to 1.5x for seconds at a
#: time.  Interference only ever slows a run down, so each latency statistic is
#: taken over every consecutive quarter of its phase and the quietest quarter
#: is reported (throughput: the best call, repeat or quarter).  The price: a
#: stall inside the program that recurs less often than once per quarter of a
#: phase (~1.3 s) hides from these metrics and shows only in operations done.
QUARTERS = 4


def quietest(samples: "Sequence[float]", statistic) -> float:
    """``statistic`` of each consecutive quarter of ``samples``; the lowest."""
    size = max(len(samples) // QUARTERS, 1)
    parts = [samples[i : i + size] for i in range(0, size * QUARTERS, size)]
    return min(statistic(part) for part in parts if len(part))


def quietest_p50(samples: "Sequence[float]") -> float:
    return quietest(samples, median)


def quietest_p90(samples: "Sequence[float]") -> float:
    return quietest(samples, lambda part: percentile(part, 90))


def best_quarter_rate(stamps: "Sequence[float]", started: float, ended: float) -> float:
    """Completions per second in the busiest quarter of ``[started, ended]``."""
    window = (ended - started) / QUARTERS
    counts = [0] * QUARTERS
    for stamp in stamps:
        counts[min(int((stamp - started) / window), QUARTERS - 1)] += 1
    return max(counts) / window


def end_to_end_payload(values: "Dict[str, float]") -> "Dict[str, dict]":
    """``{name: {value, unit}}`` for exactly the end-to-end metrics."""
    return {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in END_TO_END}


def per_layer_payload(values: "Dict[str, float]") -> "Dict[str, dict]":
    """``{name: {value, unit}}`` for every per-layer metric (absent -> 0)."""
    unknown = set(values) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"not declared in PER_LAYER: {sorted(unknown)}")
    return {
        m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
        for m in PER_LAYER
    }
