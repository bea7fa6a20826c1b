"""``knn_scan`` and ``knn_tree``: an in-process caller of ``Client.knn``.

Same rows, same queries, same calls; the only difference is
``IndexKind.NONE`` against a bulk-built ``IndexKind.DBCH``.  On the scan the
per-entry representation bound (``distance``, driven by
``engine.states.ScanState``) does nearly all the work and the tree none; on
the tree the ``index`` layer's node bounds and frontier heap are added on
top, so tree-minus-scan is one subtraction.

Both run in ``DistanceMode.LB``: Dist_PAR is not a guaranteed lower bound for
adaptive layouts and false-dismisses about one query in 200 on this data,
and a benchmark may not contain operations that fail.
"""

from __future__ import annotations

import numpy as np

import harness
import inputs as inputs_module
from harness import Scale, run_for, timed
from metrics import mean, median, quietest_p50, quietest_p90
from oracle import Tally, expected_answers, recall
from spans import ROOT, Tracer

from repro.client import KnnRequest, QueryResult, connect
from repro.engine.states import gather_rows, make_state
from repro.index import SeriesDatabase
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import SAPLAReducer

SINGLE_SHARE = 0.5  # of --seconds on single-query calls, the rest on 32-query calls

KINDS = {"knn_scan": IndexKind.NONE, "knn_tree": IndexKind.DBCH}


def _build(kind: IndexKind, scale: Scale, data: np.ndarray, representations=None) -> SeriesDatabase:
    db = SeriesDatabase(
        SAPLAReducer(scale.coefficients), index=kind, distance_mode=DistanceMode.LB
    )
    db.ingest(data, representations=representations, bulk=True)
    return db


def make_inputs(seed: int, scale: Scale, seconds: float):
    return inputs_module.make_inputs(seed, scale.rows, scale.length, scale.pool)


def _set_up(kind: IndexKind, scale: Scale, inputs):
    """Arrays -> a connected client that has answered its first query."""
    client = connect(_build(kind, scale, inputs.data))
    first = client.knn(KnnRequest(inputs.queries[0], k=scale.k))[0]
    return client, first


def end_to_end(workload: str, inputs, scale: Scale, seconds: float, tally: Tally) -> dict:
    kind = KINDS[workload]
    queries, k = inputs.queries, scale.k
    truth = expected_answers(inputs.data, queries, k)

    setups = []
    for _ in range(scale.setup_repeats):
        elapsed, (client, first) = timed(_set_up, kind, scale, inputs)
        setups.append(elapsed)
        tally.check("setup", first, truth[0])

    pool = len(queries)
    singles, answers = run_for(
        seconds * SINGLE_SHARE,
        lambda i: client.knn(KnnRequest(queries[i % pool], k=k))[0],
    )
    for i, answer in enumerate(answers):
        tally.check("single", answer, truth[i % pool])

    batches = pool // scale.batch

    def bulk(i: int):
        start = (i % batches) * scale.batch
        return client.knn(KnnRequest(queries[start : start + scale.batch], k=k))

    calls, replies = run_for(seconds * (1.0 - SINGLE_SHARE), bulk)
    for i, reply in enumerate(replies):
        start = (i % batches) * scale.batch
        for offset, answer in enumerate(reply):
            tally.check("batch", answer, truth[start + offset])
    client.close()

    return {
        "setup_s": median(setups),
        "query_p50_ms": quietest_p50(singles) * 1e3,
        "query_p90_ms": quietest_p90(singles) * 1e3,
        "throughput_per_s": scale.batch / min(calls),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def replay_query(tracer: Tracer, db, query: np.ndarray, k: int, op_id: int):
    """One ``Client.knn`` call, step by step through each layer's functions.

    Mirrors ``LocalClient.knn`` -> ``QueryEngine.knn_batch`` for a batch of
    one: pin a snapshot, plan a state, then advance / gather / verify / feed
    until done.  Returns ``(QueryResult, rounds)``.
    """
    with tracer.op(op_id):
        with tracer.span("client.request_build"):
            request = KnnRequest(query, k=k)
            options = request.options()
            row = request.queries[0]
        with tracer.span("engine.plan"):
            view = db.snapshot()
            state = make_state(
                view, row, options.k, options.lookahead,
                use_batch_bounds=True, cascade=options.cascade,
            )
        rounds = 0
        try:
            while not state.done:
                with tracer.span("engine.advance"):
                    series_ids = state.advance()
                if not series_ids:
                    continue
                with tracer.span("storage.gather"):
                    rows = gather_rows(view.data, series_ids)
                with tracer.span("engine.verify"):
                    distances = np.linalg.norm(rows - row[None, :], axis=1)
                with tracer.span("engine.feed"):
                    state.feed(series_ids, distances)
                rounds += 1
            with tracer.span("engine.finalize"):
                result = state.finalize()
                generation = view.generation
        finally:
            view.release()
        with tracer.span("client.result_build"):
            answer = QueryResult.from_knn(result, generation=generation)
    return answer, result, rounds


def _tree_shape(db) -> "tuple[int, int]":
    if db.tree is None:
        return 0, 0
    return sum(1 for _ in db.tree.iter_nodes()), db.tree.height


def distance_probes(db, inputs, scale: Scale) -> dict:
    """Per-entry cost and tightness of the representation bounds."""
    entries = db.entries
    suite = db.suite
    probes = inputs.queries[:4]
    bound_s = cheap_s = 0.0
    ratios = []
    ids = np.array([e.series_id for e in entries])
    for query in probes:
        ctx = db.query_context(query)
        elapsed, bounds = timed(
            lambda: [suite.query_bound(ctx, e.representation) for e in entries]
        )
        bound_s += elapsed
        cascade = db.cascade().for_query(ctx)
        collection = cascade.cascade.collection(db)  # built once, cached per generation
        elapsed, _ = timed(cascade.cheap_keys, collection)
        cheap_s += elapsed
        true = np.linalg.norm(inputs.data - query[None, :], axis=1)
        ratios.extend((np.asarray(bounds) / np.maximum(true[ids], 1e-12)).tolist())
    pairs = len(probes) * len(entries)
    step = max(len(entries) // 64, 1)
    sample = [e.representation for e in entries[::step]]
    elapsed, _ = timed(lambda: [suite.pairwise(a, b) for a in sample for b in sample[:16]])
    return {
        "distance.query_bound_us": bound_s / pairs * 1e6,
        "distance.cheap_key_us": cheap_s / pairs * 1e6,
        "distance.bound_tightness": mean(ratios),
        "distance.pairwise_us": elapsed / (len(sample) * min(len(sample), 16)) * 1e6,
    }


def traced(workload: str, inputs, scale: Scale, tally: Tally, tracer: Tracer) -> dict:
    kind = KINDS[workload]
    queries, k = inputs.queries, scale.k
    sample = queries[: scale.trace_sample]
    truth = expected_answers(inputs.data, sample, k)
    out: dict = {}

    reducer = SAPLAReducer(scale.coefficients)
    elapsed, representations = timed(reducer.transform_batch, inputs.data)
    out["reduction.transform_batch_s_per_krow"] = elapsed / (len(inputs.data) / 1000.0)
    out["index.build_s"], db = timed(_build, kind, scale, inputs.data, representations)
    out["index.nodes"], out["index.height"] = _tree_shape(db)
    client = connect(db)
    for query in queries[-4:]:  # caches filled, as in the timed phases
        client.knn(KnnRequest(query, k=k))

    # the same queries three ways: the facade, the engine alone, the replay
    facade, engine = [], []
    for i, query in enumerate(sample):
        elapsed, reply = timed(client.knn, KnnRequest(query, k=k))
        facade.append(elapsed)
        tally.check("traced.facade", reply[0], truth[i])
        elapsed, _ = timed(db.knn_batch, query[None, :], KnnRequest(query, k=k).options())
        engine.append(elapsed)

    results, rounds = [], []
    # a span inside engine.plan: the query's own reduction
    with tracer.patched(db.reducer, "transform", "reduction.query_transform"):
        for i, query in enumerate(sample):
            answer, result, n_rounds = replay_query(tracer, db, query, k, i)
            tally.check("traced.replay", answer, truth[i])
            results.append(result)
            rounds.append(n_rounds)

    n = len(sample)
    self_s = tracer.self_seconds()
    layered = sum(v for name, v in self_s.items() if name != ROOT)
    out.update({
        "client.request_build_ms": (
            self_s.get("client.request_build", 0.0) + self_s.get("client.result_build", 0.0)
        ) / n * 1e3,
        "engine.knn_batch_ms": median(engine) * 1e3,
        "reduction.query_transform_ms": self_s.get("reduction.query_transform", 0.0) / n * 1e3,
        "engine.plan_ms": self_s.get("engine.plan", 0.0) / n * 1e3,
        "engine.advance_ms": self_s.get("engine.advance", 0.0) / n * 1e3,
        "engine.verify_ms": self_s.get("engine.verify", 0.0) / n * 1e3,
        "engine.feed_ms": self_s.get("engine.feed", 0.0) / n * 1e3,
        "storage.gather_ms": self_s.get("storage.gather", 0.0) / n * 1e3,
        "engine.rounds_per_query": mean(rounds),
        "engine.candidates_per_query": mean([r.n_candidates for r in results]),
        "engine.verified_per_query": mean([r.n_verified for r in results]),
        "engine.verified_ratio": mean([r.n_verified / r.n_total for r in results]),
        "engine.recall": mean([recall(r.ids, t) for r, t in zip(results, truth)]),
        "index.nodes_visited_per_query": mean([r.nodes_visited for r in results]),
        "index.heap_pushes_per_query": mean([r.heap_pushes for r in results]),
        "trace.unattributed_share": 1.0 - layered / sum(facade),
        "trace.overhead_share": median(tracer.durations(ROOT)) / median(facade) - 1.0,
    })

    # one bulk call against the same queries asked one at a time
    bulk = queries[: scale.batch]
    bulk_truth = expected_answers(inputs.data, bulk, k)
    one_by_one = 0.0
    for query in bulk:
        elapsed, _ = timed(client.knn, KnnRequest(query, k=k))
        one_by_one += elapsed
    elapsed, reply = timed(client.knn, KnnRequest(bulk, k=k))
    for answer, expected in zip(reply, bulk_truth):
        tally.check("traced.batch", answer, expected)
    out["engine.batch_speedup"] = one_by_one / elapsed

    out.update(distance_probes(db, inputs, scale))
    if db.tree is not None:
        nodes = list(db.tree.iter_nodes())
        ctx = db.query_context(queries[0])
        elapsed, _ = timed(lambda: [db.node_distance(ctx, node) for node in nodes])
        out["index.node_distance_us"] = elapsed / len(nodes) * 1e6
    client.close()
    out["process.peak_rss_mb"] = harness.peak_rss_mb()
    return out
