"""``ingest_mixed``: durable writes while standing queries and reads continue.

A SAPLA-12 + DBCH collection in ``DistanceMode.LB``, saved and reopened with
``DurabilityOptions(fsync="batch", batch_records=64)``, 16 standing
``KnnWatch`` subscriptions, one caller inserting rows and reading after every
4th insert.  It runs the same ``engine`` / ``distance`` / ``index`` /
``storage`` code as the query workloads, but with a write between reads every
generation-keyed cache is rebuilt per read, and ``reduction``, ``lifecycle``
and ``continuous`` carry the inserts.  A read-side gain bought with a more
expensive append or rebuild shows here and nowhere else.

After the timed loop the home is closed without a checkpoint and reopened;
sampled acknowledged inserts must come back as their own distance-0 nearest
neighbour, and every watch's last notification must be the oracle's top-k.
"""

from __future__ import annotations

import time

import numpy as np

import harness
import inputs as inputs_module
from harness import WARMUP_SHARE, Scale, scratch_dir, timed
from metrics import best_quarter_rate, median, percentile, quietest_p50, quietest_p90
from oracle import Tally, is_own_neighbour, top_k
from spans import ROOT, Tracer

from repro.client import KnnRequest, connect
from repro.continuous import ContinuousEvaluator, KnnWatch
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import DistanceMode, IndexKind
from repro.lifecycle import DurabilityOptions, WriteAheadLog, checkpoint
from repro.reduction import SAPLAReducer

DURABILITY_SAMPLE = 16  # reopened rows queried back (first, last, evenly between)


def make_inputs(seed: int, scale: Scale, seconds: float):
    """The insert stream holds several times the rows that fit in a run today."""
    stream_rows = int(seconds * 400) + 4 * scale.trace_sample + 64
    return inputs_module.make_inputs(seed, scale.rows, scale.length, scale.pool, stream_rows)


def _durability(scale: Scale) -> DurabilityOptions:
    return DurabilityOptions(fsync="batch", batch_records=scale.wal_batch)


def _build(scale: Scale, data, representations=None) -> SeriesDatabase:
    db = SeriesDatabase(
        SAPLAReducer(scale.coefficients), index=IndexKind.DBCH, distance_mode=DistanceMode.LB
    )
    db.ingest(data, representations=representations, bulk=True)
    return db


def _watch_queries(inputs, scale: Scale):
    return inputs.queries[len(inputs.queries) - scale.watches :]


def _set_up(scale: Scale, inputs, home):
    """Arrays -> a durable home, reopened, watched, with its first insert acknowledged."""
    _build(scale, inputs.data).save(home)
    client = connect(home, _durability(scale))
    watches = [client.subscribe(KnnWatch(q, k=scale.k)) for q in _watch_queries(inputs, scale)]
    first_id = client.insert(inputs.stream[0])
    return client, watches, first_id


def _drain(subscription) -> list:
    notes = []
    while True:
        try:
            notes.append(subscription.next(timeout=0))
        except TimeoutError:
            return notes


def mixed_loop(client, inputs, scale: Scale, seconds: float, next_row: int, base: int):
    """Insert stream rows, one read after every 4th, until ``seconds`` pass.

    Returns the read latencies, the rate of completed operations (inserts +
    reads) in the best quarter of the timed part, the next unused stream row,
    and what is needed to check everything afterwards.
    """
    clock = time.perf_counter
    queries, stream, k = inputs.queries, inputs.stream, scale.k
    pool = len(queries) - scale.watches
    reads, stamps, acks, read_log = [], [], [], []
    warm_until = clock() + seconds * WARMUP_SHARE
    timing = False
    started = stop = 0.0
    while next_row < len(stream):
        now = clock()
        if not timing and now >= warm_until:
            timing, started, stop = True, now, now + seconds
        if timing and now >= stop:
            break
        t0 = clock()
        row_id = client.insert(stream[next_row])
        t1 = clock()
        acks.append((base + next_row, row_id))
        next_row += 1
        if timing:
            stamps.append(t1)
        if next_row % scale.read_every == 0:
            index = len(read_log) % pool
            t0 = clock()
            answer = client.knn(KnnRequest(queries[index], k=k))[0]
            t1 = clock()
            read_log.append((base + next_row, index, answer))
            if timing:
                reads.append(t1 - t0)
                stamps.append(t1)
    rate = best_quarter_rate(stamps, started, clock())
    return reads, rate, next_row, acks, read_log


def _check_loop(tally: Tally, inputs, scale: Scale, rows: np.ndarray, acks, read_log) -> None:
    for expected, got in acks:
        tally.record("insert", expected == got, f"acknowledged id {got}, expected {expected}")
    for count, index, answer in read_log:
        tally.check("read", answer, top_k(rows[:count], inputs.queries[index], scale.k))


def _check_watches(tally: Tally, inputs, scale: Scale, rows: np.ndarray, watches) -> None:
    """Every watch's last pushed frontier is the oracle's top-k."""
    for query, watch in zip(_watch_queries(inputs, scale), watches):
        notes = _drain(watch)
        if not notes:
            tally.fail("watch", "no notification at all")
            continue
        tally.check("watch", notes[-1], top_k(rows, query, scale.k))


def _check_reopened(tally: Tally, client, scale: Scale, rows: np.ndarray, base: int) -> None:
    """Sampled acknowledged inserts are their own distance-0 nearest neighbour."""
    inserted = np.arange(base, len(rows))
    picks = np.unique(np.linspace(0, len(inserted) - 1, DURABILITY_SAMPLE).astype(int))
    answers = client.knn(KnnRequest(rows[inserted[picks]], k=1))
    for row_id, answer in zip(inserted[picks], answers):
        tally.record(
            "durability", is_own_neighbour(answer.ids, answer.distances, row_id),
            f"row {row_id} came back as {answer.ids} at {answer.distances}",
        )


def end_to_end(workload: str, inputs, scale: Scale, seconds: float, tally: Tally) -> dict:
    base = len(inputs.data)
    setups = []
    with scratch_dir("ingest") as scratch:
        client = None
        try:
            for repeat in range(scale.setup_repeats):
                if client is not None:
                    client.close()
                home = scratch / f"home-{repeat}"
                elapsed, (client, watches, first_id) = timed(_set_up, scale, inputs, home)
                setups.append(elapsed)
                tally.record("setup", first_id == base, f"first insert got id {first_id}")

            reads, rate, used, acks, read_log = mixed_loop(
                client, inputs, scale, seconds, next_row=1, base=base
            )
            rows = np.vstack([inputs.data, inputs.stream[:used]])
            _check_loop(tally, inputs, scale, rows, acks, read_log)
            _check_watches(tally, inputs, scale, rows, watches)

            client.close()  # no checkpoint: the inserts live only in the WAL
            client = connect(home, _durability(scale))
            _check_reopened(tally, client, scale, rows, base)
        finally:
            if client is not None:
                client.close()
    return {
        "setup_s": median(setups),
        "query_p50_ms": quietest_p50(reads) * 1e3,
        "query_p90_ms": quietest_p90(reads) * 1e3,
        "throughput_per_s": rate,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def traced(workload: str, inputs, scale: Scale, tally: Tally, tracer: Tracer) -> dict:
    base, k, n = len(inputs.data), scale.k, scale.trace_sample
    stream = inputs.stream
    out: dict = {}
    reducer = SAPLAReducer(scale.coefficients)
    elapsed, representations = timed(reducer.transform_batch, inputs.data)
    out["reduction.transform_batch_s_per_krow"] = elapsed / (base / 1000.0)
    out["index.build_s"], built = timed(_build, scale, inputs.data, representations)
    out["index.nodes"] = sum(1 for _ in built.tree.iter_nodes())
    out["index.height"] = built.tree.height

    with scratch_dir("ingest-trace") as scratch:
        home = scratch / "home"
        out["io.save_s"], _ = timed(built.save, home)
        out["io.representation_bytes_per_row"] = (
            (home / "representations.json").stat().st_size / base
        )
        out["io.open_s"], reopened = timed(open_database, home)

        # -- replay: the steps of one durable, watched insert, layer by layer --
        # `reopened` has no WAL; the evaluator holds the same 16 watches the
        # real client does; a scratch log with the same policy takes the appends.
        evaluator = ContinuousEvaluator(reopened)
        delivered = []
        for query in _watch_queries(inputs, scale):
            evaluator.subscribe(KnnWatch(query, k=k), sink=delivered.append)
        delivered.clear()  # the initial full snapshots are set-up, not deltas
        log = WriteAheadLog.open(scratch / "scratch.wal", _durability(scale))
        with tracer.patched(reopened, "insert", "index.insert"), tracer.patched(
            reopened.reducer, "transform", "reduction.insert_transform"
        ):
            for i in range(n):
                row = stream[i]
                with tracer.op(i):
                    with tracer.span("lifecycle.wal_append"):
                        log.append_insert(base + i, row)
                    with tracer.span("continuous.insert"):
                        row_id = evaluator.insert(row)
                tally.record("traced.replay", row_id == base + i, f"replayed insert got id {row_id}")
        out["lifecycle.wal_bytes_per_user_byte"] = log.size_bytes() / (n * stream[0].nbytes)
        log.close()
        out["continuous.notifications"] = len(delivered)
        out["storage.columns_build_ms"] = timed(reopened.columns)[0] * 1e3
        evaluator.close()

        # -- the real thing: the facade over a durable home, same rows --------
        client = connect(home, _durability(scale))
        try:
            watches = [client.subscribe(KnnWatch(q, k=k)) for q in _watch_queries(inputs, scale)]
            facade, after_write, idle, acks, read_log = [], [], [], [], []
            for i in range(n):
                elapsed, row_id = timed(client.insert, stream[i])
                facade.append(elapsed)
                acks.append((base + i, row_id))
                if (i + 1) % scale.read_every == 0:
                    index = len(read_log)
                    request = KnnRequest(inputs.queries[index], k=k)
                    elapsed, reply = timed(client.knn, request)
                    after_write.append(elapsed)
                    read_log.append((base + i + 1, index, reply[0]))
                    idle.append(timed(client.knn, request)[0])
            rows = np.vstack([inputs.data, stream[:n]])
            _check_loop(tally, inputs, scale, rows, acks, read_log)
            _check_watches(tally, inputs, scale, rows, watches)
            client.close()
            out["lifecycle.recover_s"], client = timed(connect, home, _durability(scale))
            _check_reopened(tally, client, scale, rows, base)
            out["lifecycle.checkpoint_s"], _ = timed(checkpoint, client.database)
        finally:
            client.close()
        out["io.stored_bytes_per_user_byte"] = harness.directory_bytes(home) / rows.nbytes

    self_s = tracer.self_seconds()
    layered = sum(v for name, v in self_s.items() if name != ROOT)
    out.update({
        "client.insert_p50_ms": median(facade) * 1e3,
        "client.insert_p95_ms": percentile(facade, 95) * 1e3,
        "reduction.insert_transform_ms": self_s["reduction.insert_transform"] / n * 1e3,
        "index.insert_ms": self_s["index.insert"] / n * 1e3,
        "lifecycle.wal_append_ms": self_s["lifecycle.wal_append"] / n * 1e3,
        "continuous.delta_ms": self_s["continuous.insert"] / n * 1e3,
        # replay alone: a reopen with nothing in the log costs io.open_s
        "lifecycle.recover_ms_per_record": max(
            out["lifecycle.recover_s"] - out["io.open_s"], 0.0
        ) / n * 1e3,
        "engine.read_after_write_ms": median(after_write) * 1e3,
        "engine.read_idle_ms": median(idle) * 1e3,
        "engine.cache_rebuild_ms": median([a - b for a, b in zip(after_write, idle)]) * 1e3,
        "trace.unattributed_share": 1.0 - layered / sum(facade),
        "trace.overhead_share": median(tracer.durations(ROOT)) / median(facade) - 1.0,
        "process.peak_rss_mb": harness.peak_rss_mb(),
    })
    return out
