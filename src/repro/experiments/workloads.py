"""Workload-family implementations shared by the runner and the benchmarks.

Each family is one function from a :class:`repro.experiments.TrialSpec` to a
flat ``{metric_name: float}`` dict of derived measurements.  The functions
are deliberately observation-free of side effects: the *caller* (the
experiment runner, or a benchmark) owns the obs capture around the call, so
the same measurement code produces both the derived metrics and the
RunReport counters/spans a trial row stores.

Inputs are synthetic random walks generated from the trial seed, matching
the committed benchmark scripts — same seed, same data, bit-identical
workload from one run to the next.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Dict, List

import numpy as np

from ..engine import ExecutionMode, QueryOptions
from ..index import SeriesDatabase
from ..kinds import IndexKind
from ..reduction import REDUCERS
from .spec import WORKLOAD_FAMILIES, TrialSpec

__all__ = ["WORKLOADS", "supports", "run_workload", "make_trial_data"]


def make_trial_data(trial: TrialSpec) -> "tuple[np.ndarray, np.ndarray]":
    """The trial's (data, queries): seeded random walks plus noisy picks."""
    scale = trial.scale
    rng = np.random.default_rng(trial.seed)
    data = rng.normal(size=(scale.n_series, scale.length)).cumsum(axis=1)
    picks = rng.integers(0, scale.n_series, size=scale.n_queries)
    queries = data[picks] + rng.normal(scale=0.05, size=(scale.n_queries, scale.length))
    return data, queries


def _database(trial: TrialSpec) -> SeriesDatabase:
    reducer = REDUCERS[trial.reducer.method](n_coefficients=trial.reducer.coefficients)
    index = None if trial.index_kind is IndexKind.NONE else trial.index_kind
    return SeriesDatabase(reducer, index=index)


def _percentiles(values: "List[float]") -> "Dict[str, float]":
    ordered = sorted(values)
    out = {}
    for q, label in ((50, "p50"), (90, "p90"), (99, "p99")):
        rank = max(-(-q * len(ordered) // 100), 1)
        out[label] = ordered[min(rank, len(ordered)) - 1]
    return out


# ----------------------------------------------------------------------
# batch_knn: batched vs sequential engine throughput + serving latency
# ----------------------------------------------------------------------
def run_batch_knn(trial: TrialSpec) -> "Dict[str, float]":
    """Batched-engine throughput against the sequential baseline.

    Metrics: ``ingest_s``, ``sequential_qps``, ``batched_qps``, ``speedup``
    (whole-batch comparison, answers asserted identical via
    ``results_identical``), and ``latency_p50/p90/p99_ms`` — per-query
    serving latency measured as batch-of-1 calls, the number a latency gate
    should watch.
    """
    engine = trial.engine
    data, queries = make_trial_data(trial)
    db = _database(trial)
    started = time.perf_counter()
    db.ingest(data, bulk=db.tree is not None)
    ingest_s = time.perf_counter() - started

    options = QueryOptions(k=engine.k, mode=engine.mode, lookahead=engine.lookahead)
    started = time.perf_counter()
    sequential = db.knn_batch(
        queries, QueryOptions(k=engine.k, mode=ExecutionMode.SEQUENTIAL)
    )
    t_seq = time.perf_counter() - started
    started = time.perf_counter()
    batched = db.knn_batch(queries, options)
    t_bat = time.perf_counter() - started
    identical = all(
        a.ids == b.ids and a.distances == b.distances
        for a, b in zip(sequential.results, batched.results)
    )

    latencies_ms = []
    for query in queries:
        started = time.perf_counter()
        db.knn_batch(query[None, :], QueryOptions(k=engine.k, mode=engine.mode))
        latencies_ms.append((time.perf_counter() - started) * 1e3)

    metrics = {
        "ingest_s": ingest_s,
        "sequential_qps": len(queries) / t_seq,
        "batched_qps": len(queries) / t_bat,
        "speedup": t_seq / t_bat,
        "results_identical": float(identical),
    }
    metrics.update(
        {f"latency_{k}_ms": v for k, v in _percentiles(latencies_ms).items()}
    )
    return metrics


# ----------------------------------------------------------------------
# ingest: durable insert throughput under the spec'd fsync policy
# ----------------------------------------------------------------------
def run_ingest(trial: TrialSpec) -> "Dict[str, float]":
    """WAL-durable insert throughput into a saved database.

    Metrics: ``inserts_per_s``, ``wal_bytes`` and ``insert_p50/p99_ms``
    under the trial's fsync policy (``engine.fsync``; ``"off"`` disables
    the WAL entirely).
    """
    from ..io import open_database
    from ..lifecycle import DurabilityOptions

    scale = trial.scale
    n_inserts = scale.n_inserts or max(scale.n_series // 2, 32)
    data, _ = make_trial_data(trial)
    rng = np.random.default_rng(trial.seed + 1)
    stream = rng.normal(size=(n_inserts, scale.length)).cumsum(axis=1)
    if trial.engine.fsync == "off":
        durability = DurabilityOptions(wal=False)
    else:
        durability = DurabilityOptions(
            fsync=trial.engine.fsync, batch_records=trial.engine.fsync_batch
        )

    with tempfile.TemporaryDirectory(prefix="repro-exp-ingest-") as home:
        db = _database(trial)
        db.ingest(data)
        db.save(home)
        db = open_database(home, durability=durability)
        per_insert_ms: "List[float]" = []
        started = time.perf_counter()
        for row in stream:
            t0 = time.perf_counter()
            db.insert(row)
            per_insert_ms.append((time.perf_counter() - t0) * 1e3)
        if db.wal is not None:
            db.wal.sync()
        elapsed = time.perf_counter() - started
        wal_bytes = 0.0 if db.wal is None else float(db.wal.size_bytes())

    metrics = {
        "inserts_per_s": n_inserts / elapsed,
        "wal_bytes": wal_bytes,
        "insert_p50_ms": _percentiles(per_insert_ms)["p50"],
        "insert_p99_ms": _percentiles(per_insert_ms)["p99"],
    }
    return metrics


# ----------------------------------------------------------------------
# pruning: filter-and-refine quality (paper Fig. 13's axes)
# ----------------------------------------------------------------------
def run_pruning(trial: TrialSpec) -> "Dict[str, float]":
    """Pruning power and accuracy of filter-and-refine k-NN.

    Metrics: mean ``pruning_power`` (verified/total, paper Eq. 14), mean
    ``accuracy`` against exact ground truth, and per-query ``knn_*_ms``
    latency percentiles.  The per-bound pruning breakdown comes from the
    captured obs counters, not from here.
    """
    data, queries = make_trial_data(trial)
    db = _database(trial)
    db.ingest(data, bulk=db.tree is not None)
    k = trial.engine.k
    powers, accuracies, times_ms = [], [], []
    for query in queries:
        truth = db.ground_truth(query, k)
        started = time.perf_counter()
        result = db.knn(query, k)
        times_ms.append((time.perf_counter() - started) * 1e3)
        powers.append(result.pruning_power)
        accuracies.append(result.accuracy_against(truth))
    metrics = {
        "pruning_power": float(np.mean(powers)),
        "accuracy": float(np.mean(accuracies)),
    }
    metrics.update({f"knn_{k}_ms": v for k, v in _percentiles(times_ms).items()})
    return metrics


# ----------------------------------------------------------------------
# serving: sharded TCP scatter-gather under concurrent pipelined load
# ----------------------------------------------------------------------
def run_serving(trial: TrialSpec) -> "Dict[str, float]":
    """Sharded ``repro serve`` throughput under pipelined loopback load.

    Partitions the trial database into ``engine.shards`` round-robin shards
    behind a :class:`repro.serving.ShardedEngine`, starts a loopback
    :class:`repro.serving.ReproServer`, and drives ``scale.n_inflight``
    single-query k-NN requests (0 = ``max(4 * n_queries, 64)``) pipelined
    over a handful of connections so they are all in flight at once.

    Metrics: ``serve_qps``, ``serve_p50/p99_ms`` (client-observed, queueing
    included), ``inflight_peak`` (the server's accepted waiting+executing
    high-water mark) and ``results_identical`` — every wire answer compared
    bit-for-bit (ids *and* distances) against the unsharded engine's.
    """
    import asyncio

    from ..serving import ReproServer, ServerConfig, ShardedEngine, encode_frame, read_frame

    engine_spec = trial.engine
    scale = trial.scale
    data, queries = make_trial_data(trial)
    db = _database(trial)
    db.ingest(data, bulk=db.tree is not None)

    options = QueryOptions(k=engine_spec.k, mode=engine_spec.mode)
    reference = db.knn_batch(queries, options)
    expected = [
        ([int(i) for i in r.ids], [float(d) for d in r.distances])
        for r in reference.results
    ]

    sharded = ShardedEngine.from_database(db, engine_spec.shards)
    n_inflight = scale.n_inflight or max(4 * scale.n_queries, 64)
    requests = [
        {
            "id": i,
            "op": "knn",
            "queries": queries[i % scale.n_queries][None, :].tolist(),
            "k": engine_spec.k,
            "mode": str(ExecutionMode(engine_spec.mode)),
        }
        for i in range(n_inflight)
    ]
    config = ServerConfig(queue_depth=n_inflight + 16)

    async def _drive_connection(port: int, batch: "List[dict]") -> "List[tuple]":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        samples: "List[tuple]" = []
        try:
            sent = {}
            for frame in batch:
                sent[frame["id"]] = time.perf_counter()
                writer.write(encode_frame(frame))
            await writer.drain()
            for _ in batch:
                reply = await read_frame(reader)
                latency_ms = (time.perf_counter() - sent[reply["id"]]) * 1e3
                samples.append((reply["id"], latency_ms, reply))
        finally:
            writer.close()
            await writer.wait_closed()
        return samples

    async def _drive() -> "tuple[float, List[tuple], int]":
        server = ReproServer(sharded, config)
        await server.start()
        try:
            n_conns = min(8, n_inflight)
            batches = [requests[c::n_conns] for c in range(n_conns)]
            started = time.perf_counter()
            per_conn = await asyncio.gather(
                *(_drive_connection(server.port, batch) for batch in batches)
            )
            elapsed = time.perf_counter() - started
        finally:
            await server.stop()
        samples = [s for batch in per_conn for s in batch]
        return elapsed, samples, server.peak_in_flight

    elapsed, samples, peak = asyncio.run(_drive())
    sharded.close()

    identical = len(samples) == n_inflight
    latencies_ms: "List[float]" = []
    for rid, latency_ms, reply in samples:
        latencies_ms.append(latency_ms)
        want_ids, want_distances = expected[rid % scale.n_queries]
        answer = reply.get("results", ({},))[0] if reply.get("ok") else {}
        if answer.get("ids") != want_ids or answer.get("distances") != want_distances:
            identical = False

    metrics = {
        "serve_qps": n_inflight / elapsed,
        "inflight_peak": float(peak),
        "results_identical": float(identical),
    }
    metrics.update(
        {
            f"serve_{k}_ms": v
            for k, v in _percentiles(latencies_ms).items()
            if k in ("p50", "p99")
        }
    )
    return metrics


# ----------------------------------------------------------------------
# continuous: standing subscriptions under streaming ingest
# ----------------------------------------------------------------------
def run_continuous(trial: TrialSpec) -> "Dict[str, float]":
    """Insert-to-notify latency of standing k-NN subscriptions over TCP.

    Registers ``scale.n_subscriptions`` standing :class:`repro.continuous.
    KnnWatch` queries (0 = ``max(n_queries, 8)``) on one subscriber
    connection of a loopback :class:`repro.serving.ReproServer`, then
    streams ``scale.n_inserts`` rows through a second connection.  Every
    other streamed row is a noisy copy of a subscription query, so deltas
    are guaranteed; latency is measured from just before the insert frame
    is written to the moment its push frame is read back, matched by the
    ``generation`` the insert response and the notification both carry.

    Metrics: ``notify_p50/p99_ms``, ``notifications`` (delta pushes
    received), ``insert_qps``, and ``results_identical`` — each
    subscription's final pushed frontier compared bit-for-bit (ids *and*
    distances) against re-running its query from scratch on a fresh engine
    fed the same rows.
    """
    import asyncio
    import json
    import struct

    from ..continuous import KnnWatch
    from ..serving import ReproServer, ServerConfig, ShardedEngine, encode_frame, read_frame

    engine_spec = trial.engine
    scale = trial.scale
    data, queries = make_trial_data(trial)

    def _build_engine():
        db = _database(trial)
        db.ingest(data, bulk=db.tree is not None)
        if engine_spec.shards > 1:
            return ShardedEngine.from_database(db, engine_spec.shards)
        return db

    n_subs = scale.n_subscriptions or max(scale.n_queries, 8)
    n_inserts = scale.n_inserts or max(scale.n_series // 2, 32)
    rng = np.random.default_rng(trial.seed + 1)
    wild = rng.normal(size=(n_inserts, scale.length)).cumsum(axis=1)
    picks = rng.integers(0, scale.n_queries, size=n_inserts)
    near = queries[picks] + rng.normal(scale=0.05, size=(n_inserts, scale.length))
    stream = np.where((np.arange(n_inserts) % 2 == 0)[:, None], near, wild)
    sub_queries = [queries[i % scale.n_queries] for i in range(n_subs)]

    engine = _build_engine()
    config = ServerConfig(
        queue_depth=n_subs + n_inserts + 64, notify_queue=n_inserts + 8
    )
    received: "List[tuple]" = []  # (recv_perf_counter, notification payload)
    gen_t0: "Dict[object, float]" = {}  # insert's resulting generation -> send t0
    timings: "Dict[str, float]" = {}

    def _gen_key(generation):
        return tuple(generation) if isinstance(generation, list) else generation

    async def _drive() -> "List[str]":
        server = ReproServer(engine, config)
        await server.start()
        try:
            sub_reader, sub_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            mut_reader, mut_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # register every standing query, collect acks + initial pushes
                for i, query in enumerate(sub_queries):
                    watch = KnnWatch(query=query, k=engine_spec.k)
                    sub_writer.write(
                        encode_frame(
                            {"id": i, "op": "subscribe", "query": watch.to_payload()}
                        )
                    )
                await sub_writer.drain()
                sids_by_rid: "Dict[int, str]" = {}
                while len(sids_by_rid) < n_subs or len(received) < n_subs:
                    frame = await read_frame(sub_reader)
                    if frame.get("op") == "notify":
                        received.append((time.perf_counter(), frame["notification"]))
                    else:
                        sids_by_rid[frame["id"]] = str(frame["subscription_id"])
                sids = [sids_by_rid[i] for i in range(n_subs)]

                done = asyncio.Event()

                async def _mutate() -> None:
                    started = time.perf_counter()
                    for i, row in enumerate(stream):
                        t0 = time.perf_counter()
                        mut_writer.write(
                            encode_frame(
                                {"id": i, "op": "insert", "series": row.tolist()}
                            )
                        )
                        await mut_writer.drain()
                        reply = await read_frame(mut_reader)
                        gen_t0[_gen_key(reply["generation"])] = t0
                    timings["mutate_s"] = time.perf_counter() - started
                    done.set()

                async def _listen() -> None:
                    # cancellation-safe framing: buffer raw bytes ourselves so
                    # a timed-out read never strands half a frame
                    buffer = bytearray()
                    quiet = 0
                    while True:
                        try:
                            chunk = await asyncio.wait_for(
                                sub_reader.read(1 << 16), timeout=0.5
                            )
                        except asyncio.TimeoutError:
                            if done.is_set() and not buffer:
                                quiet += 1
                                if quiet >= 2:
                                    return
                            continue
                        if not chunk:
                            return
                        quiet = 0
                        buffer.extend(chunk)
                        while len(buffer) >= 4:
                            (length,) = struct.unpack(">I", bytes(buffer[:4]))
                            if len(buffer) < 4 + length:
                                break
                            body = bytes(buffer[4 : 4 + length])
                            del buffer[: 4 + length]
                            frame = json.loads(body.decode("utf-8"))
                            if frame.get("op") == "notify":
                                received.append(
                                    (time.perf_counter(), frame["notification"])
                                )

                await asyncio.gather(_mutate(), _listen())
                return sids
            finally:
                for writer in (sub_writer, mut_writer):
                    writer.close()
                    await writer.wait_closed()
        finally:
            await server.stop()

    sids = asyncio.run(_drive())
    closer = getattr(engine, "close", None)
    if callable(closer):
        closer()

    # latency per delta push + each subscription's final pushed frontier
    latencies_ms: "List[float]" = []
    state: "Dict[str, tuple]" = {}  # sid -> (seq, notification payload)
    for recv_t, note in received:
        sid = note["subscription_id"]
        if sid not in state or note["seq"] > state[sid][0]:
            state[sid] = (note["seq"], note)
        t0 = gen_t0.get(_gen_key(note.get("generation")))
        if t0 is not None:
            latencies_ms.append((recv_t - t0) * 1e3)

    scratch = _build_engine()
    for row in stream:
        scratch.insert(row)
    batch = scratch.knn_batch(
        np.asarray(sub_queries), QueryOptions(k=engine_spec.k)
    )
    identical = len(state) == n_subs and bool(latencies_ms)
    for i, result in enumerate(batch.results):
        note = state.get(sids[i], (0, None))[1]
        if note is None:
            identical = False
            continue
        want_ids = [int(g) for g in result.ids]
        want_distances = [float(d) for d in result.distances]
        if note["ids"] != want_ids or note["distances"] != want_distances:
            identical = False
    closer = getattr(scratch, "close", None)
    if callable(closer):
        closer()

    metrics = {
        "notifications": float(len(latencies_ms)),
        "insert_qps": n_inserts / timings["mutate_s"],
        "results_identical": float(identical),
    }
    metrics.update(
        {
            f"notify_{k}_ms": v
            for k, v in _percentiles(latencies_ms or [0.0]).items()
            if k in ("p50", "p99")
        }
    )
    return metrics


#: family name -> implementation; keys mirror spec.WORKLOAD_FAMILIES
WORKLOADS: "Dict[str, Callable[[TrialSpec], Dict[str, float]]]" = {
    "batch_knn": run_batch_knn,
    "ingest": run_ingest,
    "pruning": run_pruning,
    "serving": run_serving,
    "continuous": run_continuous,
}
assert tuple(WORKLOADS) == WORKLOAD_FAMILIES

#: index kinds each family can execute (others are skipped, not failed)
_SUPPORTED_INDEXES = {
    "batch_knn": (IndexKind.NONE, IndexKind.DBCH, IndexKind.RTREE),
    "ingest": (IndexKind.DBCH, IndexKind.RTREE),
    "pruning": (IndexKind.NONE, IndexKind.DBCH, IndexKind.RTREE),
    "serving": (IndexKind.NONE, IndexKind.DBCH, IndexKind.RTREE),
    "continuous": (IndexKind.NONE, IndexKind.DBCH, IndexKind.RTREE),
}


def supports(trial: TrialSpec) -> bool:
    """Whether the trial's workload can execute this matrix cell."""
    return trial.index_kind in _SUPPORTED_INDEXES[trial.workload]


def run_workload(trial: TrialSpec) -> "Dict[str, float]":
    """Execute one trial's workload and return its derived metrics."""
    return WORKLOADS[trial.workload](trial)
