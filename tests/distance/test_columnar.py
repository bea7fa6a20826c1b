"""The columnar store and its one-query-vs-all bounds equal the scalar path.

``suite.query_bound_batch(ctx, suite.stack(reps))`` (Dist_LB) must be
bit-identical to ``[suite.query_bound(ctx, r) for r in reps]`` for every
adaptive reducer — the engine's accounting equivalence rests on it — and so
must ``suite.pairwise_batch`` (Dist_PAR, the DBCH node keys) to
``suite.pairwise``; a store grown by database mutations must equal a fresh
stack of the live entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linefit import SeriesStats
from repro.core.segment import LinearSegmentation, Segment
from repro.distance import QueryContext, SegmentColumns, make_suite
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.lifecycle import compact
from repro.reduction import REDUCERS

ADAPTIVE = ("SAPLA", "APLA", "APCA")
#: the suite's two kernels over a stacked layout: the Dist_LB query bound
#: and the Dist_PAR pairwise distance
MODES = ("lb", "par")


def batch_and_scalar(suite, mode, ctx, columns, reps):
    """One kernel's batch values over ``columns`` and its scalar values."""
    if mode == "lb":
        scalar = [suite.query_bound(ctx, rep) for rep in reps]
        return suite.query_bound_batch(ctx, columns), np.array(scalar)
    scalar = [suite.pairwise(ctx.representation, rep) for rep in reps]
    return suite.pairwise_batch(ctx.representation, columns), np.array(scalar)


def random_layout(rng, n, max_segments):
    """Right endpoints of a random segmentation of ``[0, n)``; short windows
    (including single points) are likely."""
    cuts = rng.choice(n - 1, size=min(int(rng.integers(0, max_segments)), n - 1), replace=False)
    return sorted(int(c) for c in cuts) + [n - 1]


def segmentation(ends, coefficients):
    segments, start = [], 0
    for end, (a, b) in zip(ends, coefficients):
        segments.append(Segment(start=start, end=end, a=a, b=b))
        start = end + 1
    return LinearSegmentation(segments)


def random_rep(rng, n, max_segments, constant):
    ends = random_layout(rng, n, max_segments)
    slopes = np.zeros(len(ends)) if constant else rng.normal(size=len(ends))
    return segmentation(ends, zip(slopes.tolist(), rng.normal(size=len(ends)).tolist()))


def fitted(series, ends):
    stats, segments, start = SeriesStats(series), [], 0
    for end in ends:
        segments.append(Segment.fit(stats, start, end))
        start = end + 1
    return LinearSegmentation(segments)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ADAPTIVE)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 48),
    rows=st.integers(1, 12),
    query_layout=st.sampled_from(["own", "row", "row_plus_one"]),
)
@settings(max_examples=40, deadline=None)
def test_batch_bound_is_bit_identical_on_ragged_layouts(name, mode, seed, n, rows, query_layout):
    """Hand-built collections: mixed segment counts, length-1 segments,
    all-constant rows beside sloped ones; the query's endpoints are its own
    (interleaving), a row's (coinciding), or a row's plus one extra cut."""
    rng = np.random.default_rng(seed)
    reps = [random_rep(rng, n, 7, constant=bool(rng.integers(0, 2))) for _ in range(rows)]
    query = rng.normal(size=n).cumsum()
    if query_layout == "own":
        ends = random_layout(rng, n, 7)
    else:
        ends = reps[int(rng.integers(0, rows))].right_endpoints
        if query_layout == "row_plus_one":
            ends = sorted(set(ends) | {int(rng.integers(0, n))})
    suite = make_suite(REDUCERS[name](12))
    ctx = QueryContext(query, representation=fitted(query, ends))
    batch, scalar = batch_and_scalar(suite, mode, ctx, suite.stack(reps), reps)
    assert np.array_equal(batch, scalar)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ADAPTIVE)
def test_batch_bound_is_bit_identical_on_reduced_collections(name, mode):
    """Real reductions at mixed budgets (so mixed widths), grown by extend."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 96)).cumsum(axis=1)
    data[7] = 1.5  # a flat row: every reducer fits slopes of exactly zero
    reps = [REDUCERS[name](budget).transform(row) for budget in (6, 12, 18) for row in data]
    suite = make_suite(REDUCERS[name](12))
    columns = suite.stack(reps[:50])
    columns.extend(reps[50:90])  # widens: the 18-coefficient rows have more segments
    for rep in reps[90:]:
        columns.extend([rep])
    assert len(columns) == len(reps)
    for query in (data[3] + 0.05, rng.normal(size=96).cumsum(), data[7]):
        ctx = QueryContext(query, reducer=REDUCERS[name](12))
        batch, scalar = batch_and_scalar(suite, mode, ctx, columns, reps)
        assert np.array_equal(batch, scalar)


def test_batch_bound_rejects_a_query_of_another_length():
    reducer = REDUCERS["SAPLA"](12)
    reps = [reducer.transform(np.arange(32.0))]
    short = np.arange(16.0)
    suite = make_suite(reducer)
    ctx = QueryContext(short, reducer=reducer)
    for mode in MODES:
        with pytest.raises(ValueError):
            batch_and_scalar(suite, mode, ctx, suite.stack(reps), [])
    with pytest.raises(ValueError):
        SegmentColumns(reps).extend([reducer.transform(short)])


# ----------------------------------------------------------------------
# the database's store under mutation
# ----------------------------------------------------------------------
COLUMNS = ("starts", "ends", "slopes", "intercepts", "mask", "c3", "c2", "c1", "constant")
LENGTH = 32


def assert_store_matches_entries(db):
    sids, stacked = db.stacked_entries()
    fresh = db.suite.stack([e.representation for e in db.entries])
    assert sids.tolist() == [e.series_id for e in db.entries]
    assert len(stacked) == len(fresh)
    for column in COLUMNS:
        assert np.array_equal(getattr(stacked, column), getattr(fresh, column)), column


def op_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 2**31 - 1)),
            st.tuples(st.just("insert_batch"), st.integers(0, 2**31 - 1)),
            st.tuples(st.just("delete"), st.integers(0, 39)),
            st.tuples(st.just("compact"), st.just(0)),
            st.tuples(st.just("pin"), st.just(0)),
            st.tuples(st.just("release"), st.just(0)),
        ),
        min_size=1,
        max_size=20,
    )


@pytest.mark.parametrize("index", [None, IndexKind.DBCH], ids=["scan", "dbch"])
@pytest.mark.parametrize("name", ["SAPLA", "APCA", "PAA"])
@given(ops=op_strategy())
@settings(max_examples=15, deadline=None)
def test_store_grown_by_mutations_equals_a_fresh_stack(name, index, ops):
    """insert / insert_batch / delete / compact, with and without a pinned
    snapshot: the store always equals ``stack`` of the visible entries, and
    answers through it equal the sequential scalar path."""
    from repro.engine import ExecutionMode, QueryOptions

    db = SeriesDatabase(REDUCERS[name](9), index=index)
    db.ingest(np.random.default_rng(3).normal(size=(8, LENGTH)).cumsum(axis=1))
    pinned = None
    for op, arg in ops:
        rng = np.random.default_rng(arg)
        if op == "insert":
            db.insert(rng.normal(size=LENGTH).cumsum())
        elif op == "insert_batch":
            db.insert_batch(rng.normal(size=(3, LENGTH)).cumsum(axis=1))
        elif op == "delete":
            db.delete(arg)
        elif op == "compact" and pinned is None and db.entries:
            compact(db)
        elif op == "pin" and pinned is None:
            pinned = db.snapshot()
        elif op == "release" and pinned is not None:
            pinned.release()
            pinned = None
        if not db.entries:
            assert db.stacked_entries() is None
            continue
        assert_store_matches_entries(db)
        if pinned is not None:
            assert pinned.stacked_entries()[0].tolist() == [e.series_id for e in pinned.entries]
    if pinned is not None:
        pinned.release()
    if db.entries:
        assert_store_matches_entries(db)
        query = np.random.default_rng(1).normal(size=(1, LENGTH)).cumsum(axis=1)
        fast = db.knn_batch(query, QueryOptions(k=3)).results[0]
        slow = db.knn_batch(query, QueryOptions(k=3, mode=ExecutionMode.SEQUENTIAL)).results[0]
        assert (fast.ids, fast.distances) == (slow.ids, slow.distances)
