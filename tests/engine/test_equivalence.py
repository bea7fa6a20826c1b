"""Equivalence: linear_scan == SeriesDatabase.knn == QueryEngine.knn_batch.

The engine's contract is byte-identity — for every reducer and index, as
built or reopened from a home that stores an old ``distance_mode`` (see
:mod:`tests.stored_modes`), a batched call returns exactly the ids *and*
distances of per-query :meth:`SeriesDatabase.knn` calls and of the classic
sequential loop (``ExecutionMode.SEQUENTIAL``).  Every query bound is a
true lower bound (Dist_LB, the aligned methods, CHEBY, SAX mindist), so the
answers must also equal the brute-force ground truth, including the stable
tie-break on duplicate series.  Range queries ride the same grids: they are
the same state-machine walk with a fixed radius.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import ADAPTIVE_METHODS
from repro.engine import ExecutionMode, QueryEngine, QueryOptions
from repro.engine.states import WHOLE_RUN, gather_rows, make_state
from repro.index import SeriesDatabase, linear_scan
from repro.index.knn import RangeHits
from repro.kinds import IndexKind
from repro.reduction import PAA, PLA, REDUCERS
from tests.stored_modes import STORED_MODES, with_stored_mode

INDEXES = (None, IndexKind.DBCH, IndexKind.RTREE)

#: (reducer name, stored ``distance_mode``): every query bound is a
#: guaranteed lower bound, so filter-and-refine must reproduce the
#: brute-force answer exactly; a shard manifest stored ``"par"`` for the
#: equal-length methods
EXACT_CONFIGS = [
    ("SAPLA", "lb"),
    ("APLA", "lb"),
    ("APCA", "lb"),
    ("PLA", "par"),
    ("PAA", "par"),
    ("PAALM", "par"),
    ("CHEBY", "par"),
    ("SAX", "par"),
]


def dataset(count=24, n=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


def build(name, index, data, mode="lb"):
    db = SeriesDatabase(REDUCERS[name](8), index=index)
    db.ingest(data)
    return with_stored_mode(db, mode)


def assert_same(a, b):
    assert a.ids == b.ids
    assert a.distances == b.distances


def mid_radius(data, query, rank=5):
    """A radius strictly between the ``rank``-th and next true distances."""
    truth = np.sort(np.linalg.norm(data - query, axis=1))
    return float(truth[rank : rank + 2].mean())


def walk(db, query, k, use_batch_bounds=True, collector=None, max_rounds=None):
    """One state driven the way the engine drives it, with the bound path
    chosen at the ``make_state`` level (there is no user-facing switch).

    Returns ``(result, rounds, rows emitted)``; ``max_rounds`` stops early,
    as a deadline between rounds would.
    """
    with db.snapshot() as view:
        state = make_state(
            view, query, k, 1, use_batch_bounds=use_batch_bounds, collector=collector
        )
        rounds = emitted = 0
        while not state.done and rounds != max_rounds:
            ids = state.advance()
            if ids:
                rows = gather_rows(view.data, ids)
                state.feed(ids, np.linalg.norm(rows - query[None, :], axis=1))
                rounds += 1
                emitted += len(ids)
        return state.finalize(), rounds, emitted


def range_walk(db, query, radius, use_batch_bounds):
    """One range state's result, driven as :func:`walk` drives it."""
    return walk(db, query, WHOLE_RUN, use_batch_bounds, RangeHits(radius))[0]


def assert_same_accounting(a, b):
    """Ids, distances *and* every search counter agree — the cascade's
    contract is that it changes when work happens, never what happens."""
    assert_same(a, b)
    assert a.n_verified == b.n_verified
    assert a.n_total == b.n_total
    assert a.n_candidates == b.n_candidates
    assert a.nodes_visited == b.nodes_visited
    assert a.node_pushes == b.node_pushes
    assert a.heap_pushes == b.heap_pushes


@pytest.mark.parametrize("index", INDEXES, ids=["scan", "dbch", "rtree"])
@pytest.mark.parametrize("mode", STORED_MODES)
@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_batch_matches_per_query_and_sequential(name, mode, index):
    """Full grid: knn == knn_batch == SEQUENTIAL mode, bit for bit.

    For the adaptive reducers the vectorised path reads its entry bounds
    from the columnar store's one-query-vs-all kernels, which are
    bit-identical to the scalar bounds the sequential path evaluates — so
    there every search counter must agree as well, scan and tree alike.
    ``AUTO`` keeps a multi-query adaptive scan on the lazy cascade heap, so
    ``VECTORIZED`` (which always reads the store) is compared too.
    """
    data = dataset()
    db = build(name, index, data, mode)
    queries = np.stack([data[3] + 0.1, data[10] - 0.2, data[0]])
    singles = [db.knn(q, 5) for q in queries]
    batched = db.knn_batch(queries, QueryOptions(k=5))
    vectorized = db.knn_batch(queries, QueryOptions(k=5, mode=ExecutionMode.VECTORIZED))
    sequential = db.knn_batch(queries, QueryOptions(k=5, mode=ExecutionMode.SEQUENTIAL))
    assert not batched.timed_out
    for single, bat, vec, seq in zip(
        singles, batched.results, vectorized.results, sequential.results
    ):
        assert_same(single, bat)
        assert_same(single, vec)
        assert_same(single, seq)
        if name in ADAPTIVE_METHODS:
            assert_same_accounting(single, seq)
            assert_same_accounting(bat, seq)
            assert_same_accounting(vec, seq)
    # range: store-read and scalar bounds give the same walk, to the counter
    query = queries[0]
    radius = mid_radius(data, query)
    from_store = range_walk(db, query, radius, use_batch_bounds=True)
    assert from_store == range_walk(db, query, radius, use_batch_bounds=False)
    assert from_store == db.range_query(query, radius)
    if index is None:
        ctx = db.query_context(query)
        admissible = [
            db.suite.query_bound(ctx, e.representation) <= radius for e in db.entries
        ]
        assert from_store.n_verified == sum(admissible)


@pytest.mark.parametrize(
    "index,mode,reductions",
    [
        (None, "lb", 0),  # Dist_LB reads the raw query only
        (None, "par", 0),  # and so does a home that stored Dist_PAR
        (IndexKind.DBCH, "lb", 1),  # node distances need the reduction
        (IndexKind.DBCH, "par", 1),
    ],
    ids=["scan-lb", "scan-par", "dbch-lb", "dbch-par"],
)
def test_query_is_reduced_only_when_read_and_only_once(index, mode, reductions):
    data = dataset()
    db = build("SAPLA", index, data, mode)
    calls = []
    transform = db.reducer.transform
    db.reducer.transform = lambda series: calls.append(1) or transform(series)
    try:
        result = db.knn(data[3] + 0.1, 5)
    finally:
        del db.reducer.transform
    assert len(calls) == reductions
    assert_same(result, db.knn_batch(data[3:4] + 0.1, QueryOptions(k=5)).results[0])


@pytest.mark.parametrize(
    "index,mode,n_queries,reads",
    [
        (None, ExecutionMode.AUTO, 1, 1),
        (None, ExecutionMode.AUTO, 3, 0),  # staged: lazy cascade heap for now
        (None, ExecutionMode.VECTORIZED, 3, 3),
        (IndexKind.DBCH, ExecutionMode.AUTO, 3, 3),
        (None, ExecutionMode.SEQUENTIAL, 3, 0),
    ],
    ids=["scan-1", "scan-3", "scan-3-vectorized", "dbch-3", "scan-3-sequential"],
)
def test_which_calls_read_the_columnar_store(index, mode, n_queries, reads):
    """One store read per query wherever the one-vs-all bounds are in use."""
    data = dataset()
    db = build("SAPLA", index, data)
    calls = []
    stacked_entries = db.stacked_entries
    db.stacked_entries = lambda: calls.append(1) or stacked_entries()
    db.knn_batch(data[:n_queries] + 0.1, QueryOptions(k=3, mode=mode))
    assert len(calls) == reads


@pytest.mark.parametrize("index", INDEXES, ids=["scan", "dbch", "rtree"])
@pytest.mark.parametrize("name,mode", EXACT_CONFIGS)
def test_lower_bounding_configs_match_linear_scan(name, mode, index):
    """Where the bound is a true lower bound the engine is exact."""
    data = dataset(seed=2)
    db = build(name, index, data, mode)
    queries = np.stack([data[1] + 0.05, data[7], dataset(1, 48, seed=9)[0]])
    batched = db.knn_batch(queries, QueryOptions(k=4))
    for query, result in zip(queries, batched.results):
        assert_same(result, linear_scan(data, query, 4))
        radius = mid_radius(data, query)
        truth = np.linalg.norm(data - query[None, :], axis=1)
        hits = sorted((d, i) for i, d in enumerate(truth.tolist()) if d <= radius)
        within = db.range_query(query, radius)
        assert list(zip(within.distances, within.ids)) == hits


@pytest.mark.parametrize("name", ["SAPLA", "APLA", "APCA"])
def test_adaptive_rtree_node_mindist_never_dismisses(name):
    """Regression: the R-tree's feature MINDIST is not a lower bound for
    adaptive layouts, so it must only order the walk — pruning on it falsely
    dismissed a true neighbour on exactly this dataset (found by the sharded
    equivalence property; APLA/LB, k=3)."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(22, 48)).cumsum(axis=1)
    qrng = np.random.default_rng(1)
    queries = data[qrng.integers(0, len(data), size=3)]
    queries = queries + qrng.normal(scale=0.05, size=queries.shape)
    db = build(name, IndexKind.RTREE, data)
    assert not db.node_bounds_exact
    batched = db.knn_batch(queries, QueryOptions(k=3))
    for query, result in zip(queries, batched.results):
        assert_same(result, linear_scan(data, query, 3))
    flat = build(name, None, data)
    for query in queries:
        assert_same(db.range_query(query, 12.0), flat.range_query(query, 12.0))


@pytest.mark.parametrize("index", INDEXES, ids=["scan", "dbch", "rtree"])
def test_k_larger_than_count_returns_everything(index):
    data = dataset(count=6)
    db = build("PAA", index, data)
    batch = db.knn_batch(data[:2], QueryOptions(k=50))
    for query, result in zip(data[:2], batch.results):
        assert len(result.ids) == len(data)
        assert_same(result, linear_scan(data, query, 50))


@pytest.mark.parametrize("index", INDEXES, ids=["scan", "dbch", "rtree"])
def test_duplicate_series_tie_break_is_stable_by_id(index):
    """Duplicates: every path keeps the smallest ids, like the stable scan."""
    base = dataset(count=4)
    data = np.concatenate([base, base, base])  # ids 0..11, triples of each row
    db = build("PAA", index, data)
    batch = db.knn_batch(base, QueryOptions(k=5))
    for query, result in zip(base, batch.results):
        assert_same(result, linear_scan(data, query, 5))


def test_lookahead_changes_rounds_not_answers():
    """``lookahead`` paces a tree walk: fewer, larger rounds (which may
    verify more), same answers."""
    data = dataset(count=30)
    db = build("SAPLA", IndexKind.DBCH, data)
    queries = data[:4] + 0.05
    one = db.knn_batch(queries, QueryOptions(k=3, lookahead=1))
    eager = db.knn_batch(queries, QueryOptions(k=3, lookahead=8))
    assert eager.rounds < one.rounds
    for a, b in zip(one.results, eager.results):
        assert_same(a, b)


def test_lookahead_does_not_pace_a_scan():
    """A scan over sorted bounds sizes its own blocks: ``lookahead`` moves
    neither its rounds nor anything it returns."""
    data = dataset(count=60)
    db = build("SAPLA", None, data)
    for query in data[:4] + 0.05:
        one = db.knn_batch(query[None, :], QueryOptions(k=3, lookahead=1))
        eager = db.knn_batch(query[None, :], QueryOptions(k=3, lookahead=8))
        assert one.rounds == eager.rounds
        assert_same_accounting(one.results[0], eager.results[0])


def test_scan_verifies_in_blocks_with_sequential_accounting():
    """Perf-sized scan (1024 × 256, SAPLA-12, Dist_LB, k = 8): a single
    query takes a handful of block rounds, its every counter equals the
    one-row SEQUENTIAL reference, and some block's speculative tail was
    really discarded by the replay."""
    rng = np.random.default_rng(27)
    data = rng.normal(size=(1024, 256)).cumsum(axis=1)
    db = SeriesDatabase(REDUCERS["SAPLA"](12), index=None)
    db.ingest(data)
    near = data[rng.integers(0, len(data), size=8)] + rng.normal(0.0, 0.05, (8, 256))
    queries = np.concatenate([near, rng.normal(size=(8, 256)).cumsum(axis=1)])
    sequential = db.knn_batch(queries, QueryOptions(k=8, mode=ExecutionMode.SEQUENTIAL))
    rounds = discarded = 0
    for query, expected in zip(queries, sequential.results):
        single = db.knn_batch(query[None, :], QueryOptions(k=8))
        assert_same_accounting(single.results[0], expected)
        walked, walk_rounds, emitted = walk(db, query, 8)
        assert_same_accounting(walked, expected)
        assert walk_rounds == single.rounds
        rounds += single.rounds
        discarded += emitted - walked.n_verified
    assert rounds / len(queries) <= 8
    assert discarded > 0


@pytest.mark.parametrize("fire_after", [1, 2, 3])
def test_deadline_keeps_exactly_the_replayed_count(monkeypatch, fire_after):
    """A deadline that fires between block rounds returns what the replay
    offered so far: the same partial result and ``n_verified`` as the walk
    stopped after that many rounds (after round 1: exactly ``k``)."""
    import time
    import types

    import repro.engine.engine as engine_mod

    data = dataset(count=400, seed=4)
    db = build("PAA", None, data)
    query = dataset(1, 48, seed=9)[0]
    calls = []

    def clock():  # the deadline's own reading, then one per round
        calls.append(None)
        return 0.0 if len(calls) <= fire_after + 1 else 10.0

    monkeypatch.setattr(
        engine_mod,
        "time",
        types.SimpleNamespace(monotonic=clock, perf_counter=time.perf_counter),
    )
    batch = db.knn_batch(query[None, :], QueryOptions(k=2, deadline_s=1.0))
    partial, rounds, _ = walk(db, query, 2, max_rounds=fire_after)
    assert batch.timed_out == [0]
    assert batch.rounds == rounds == fire_after
    assert_same_accounting(batch.results[0], partial)
    assert partial.n_verified < walk(db, query, 2)[0].n_verified
    if fire_after == 1:
        assert partial.n_verified == 2


@pytest.mark.parametrize("index", INDEXES, ids=["scan", "dbch", "rtree"])
@pytest.mark.parametrize("mode", STORED_MODES)
@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_cascade_toggle_is_invisible(name, mode, index):
    """Full grid: cascade on vs off — same ids, distances and accounting.

    The bound cascade evaluates a cheap dominated tier before each exact
    bound; because the cheap tier never overshoots, every emission, prune
    and verification decision must be byte-identical with ``cascade=False``
    (the pre-cascade eager paths) in both vectorised and sequential modes.
    """
    data = dataset(seed=3)
    db = build(name, index, data, mode)
    queries = np.stack([data[5] + 0.1, data[14] - 0.2, dataset(1, 48, seed=8)[0]])
    off = QueryOptions(k=5, cascade=False)
    on = db.knn_batch(queries, QueryOptions(k=5))
    base = db.knn_batch(queries, off)
    seq_on = db.knn_batch(queries, QueryOptions(k=5, mode=ExecutionMode.SEQUENTIAL))
    seq_base = db.knn_batch(
        queries,
        QueryOptions(k=5, mode=ExecutionMode.SEQUENTIAL, cascade=False),
    )
    for a, b, c, d in zip(on.results, base.results, seq_on.results, seq_base.results):
        assert_same_accounting(a, b)
        assert_same_accounting(c, d)
        assert_same(a, c)


class TestPropertyEquivalence:
    """Randomised data/batch shapes keep the three paths identical."""

    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(3, 20),
        n_queries=st.integers(1, 5),
        k=st.integers(1, 8),
        reducer=st.sampled_from([PAA, PLA]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_batches(self, seed, count, n_queries, k, reducer):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(count, 32)).cumsum(axis=1)
        queries = rng.normal(size=(n_queries, 32)).cumsum(axis=1)
        db = SeriesDatabase(reducer(6), index=None)
        db.ingest(data)
        batch = db.knn_batch(queries, QueryOptions(k=k))
        sequential = db.knn_batch(
            queries, QueryOptions(k=k, mode=ExecutionMode.SEQUENTIAL)
        )
        for i, query in enumerate(queries):
            truth = linear_scan(data, query, k)
            assert_same(batch.results[i], truth)
            assert_same(sequential.results[i], truth)
            assert_same(db.knn(query, k), truth)

    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(4, 24),
        index=st.sampled_from(INDEXES),
        mode=st.sampled_from(STORED_MODES),
        name=st.sampled_from(["SAPLA", "PAA"]),
        duplicates=st.booleans(),
        draw=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_cascade_toggle(self, seed, count, index, mode, name, duplicates, draw):
        """Random shapes: neither the cascade nor the bound path (blocked
        store scan vs one-row SEQUENTIAL heap) changes answers or accounting
        — with duplicate rows (equal bounds, equal distances), every ``k``
        up to past the collection, and range radii set exactly on a true
        distance and exactly on a bound."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(count, 32)).cumsum(axis=1)
        if duplicates:
            data = data[rng.integers(0, max(count // 3, 1), size=count)]
        queries = np.stack([rng.normal(size=32).cumsum(), data[0]])
        k = draw.draw(st.integers(1, count + 2), label="k")
        db = SeriesDatabase(REDUCERS[name](6), index=index)
        db.ingest(data)
        db = with_stored_mode(db, mode)
        off = QueryOptions(k=k, cascade=False)
        on = db.knn_batch(queries, QueryOptions(k=k, mode=ExecutionMode.VECTORIZED))
        base = db.knn_batch(queries, off)
        seq_on = db.knn_batch(queries, QueryOptions(k=k, mode=ExecutionMode.SEQUENTIAL))
        seq_base = db.knn_batch(
            queries,
            QueryOptions(k=k, mode=ExecutionMode.SEQUENTIAL, cascade=False),
        )
        for a, b, c, d in zip(
            on.results, base.results, seq_on.results, seq_base.results
        ):
            assert_same_accounting(a, b)
            assert_same_accounting(c, d)
            assert_same_accounting(a, c)  # batch bounds == scalar bounds, to the bit
        for query in queries:
            truth = np.linalg.norm(data - query[None, :], axis=1)
            ctx = db.query_context(query)
            bounds = [db.suite.query_bound(ctx, e.representation) for e in db.entries]
            for radius in (truth[rng.integers(count)], bounds[rng.integers(count)]):
                radius = float(radius)
                from_store = range_walk(db, query, radius, use_batch_bounds=True)
                assert from_store == range_walk(db, query, radius, use_batch_bounds=False)
                if index is None:
                    assert from_store.n_verified == sum(b <= radius for b in bounds)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_random_trees_agree_with_per_query(self, seed, k):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(18, 32)).cumsum(axis=1)
        queries = rng.normal(size=(3, 32)).cumsum(axis=1)
        db = SeriesDatabase(REDUCERS["SAPLA"](6), index=IndexKind.DBCH)
        db.ingest(data)
        batch = db.knn_batch(queries, QueryOptions(k=k))
        for i, query in enumerate(queries):
            assert_same(batch.results[i], db.knn(query, k))


def test_engine_is_reusable_across_batches():
    data = dataset()
    db = build("PAA", None, data)
    engine = db.engine()
    first = engine.knn_batch(data[:2], QueryOptions(k=3))
    second = engine.knn_batch(data[2:4], QueryOptions(k=3))
    for query, result in zip(data[:2], first.results):
        assert_same(result, linear_scan(data, query, 3))
    for query, result in zip(data[2:4], second.results):
        assert_same(result, linear_scan(data, query, 3))
