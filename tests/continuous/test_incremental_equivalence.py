"""Property: incremental frontiers are bit-identical to scratch re-runs.

Mirrors ``tests/property/test_mutate_query_equivalence.py`` for the
continuous layer: after any interleaving of inserts and deletes routed
through a :class:`ContinuousEvaluator`, the last notification a k-NN or
range subscription delivered must carry exactly — ids *and* float
distances — what re-running the query one-shot on the mutated target
returns.  The grid covers both reducer families (PAA aligned, SAPLA under
Dist_LB — exactness needs a lower bound), the linear-scan and DBCH index
paths, and sharded layouts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous import ContinuousEvaluator, KnnWatch, RangeWatch
from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA, SAPLAReducer
from repro.serving import ShardedEngine

LENGTH = 32
SEED_ROWS = 12
K = 4


def _paa_db(index):
    return SeriesDatabase(PAA(n_coefficients=8), index=index)


def _sapla_db(index):
    return SeriesDatabase(
        SAPLAReducer(8), index=index
    )


CONFIGS = [
    ("paa-scan", lambda: _paa_db(None)),
    ("paa-dbch", lambda: _paa_db(IndexKind.DBCH)),
    ("sapla-lb-dbch", lambda: _sapla_db(IndexKind.DBCH)),
    ("paa-sharded2", lambda: ShardedEngine.from_database(_seeded(_paa_db(None)), 2)),
    (
        "sapla-lb-sharded3",
        lambda: ShardedEngine.from_database(_seeded(_sapla_db(None)), 3),
    ),
]


def _seeded(db):
    rng = np.random.default_rng(0)
    db.ingest(rng.normal(size=(SEED_ROWS, LENGTH)).cumsum(axis=1))
    return db


def build_target(factory):
    target = factory()
    if not isinstance(target, ShardedEngine):
        target = _seeded(target)
    return target


op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10_000)),
    ),
    min_size=0,
    max_size=10,
)


def apply_ops(evaluator, ops, query):
    """Route the op sequence through the evaluator; returns live gids."""
    live = set(range(SEED_ROWS))
    for kind, argument in ops:
        if kind == "insert":
            rng = np.random.default_rng(argument)
            if argument % 2 == 0:  # half the inserts churn the frontier
                row = query + rng.normal(scale=0.05, size=LENGTH)
            else:
                row = rng.normal(size=LENGTH).cumsum()
            live.add(evaluator.insert(row))
        elif live:
            victim = sorted(live)[argument % len(live)]
            if evaluator.delete(victim):
                live.discard(victim)
    return live


@settings(max_examples=10, deadline=None)
@given(ops=op_strategy, data=st.data())
def test_incremental_equals_scratch_for_knn_and_range(ops, data):
    name, factory = data.draw(st.sampled_from(CONFIGS), label="config")
    target = build_target(factory)
    rng = np.random.default_rng(1)
    query = rng.normal(size=LENGTH).cumsum()
    radius = float(
        target.knn_batch(query[None, :], QueryOptions(k=3)).results[0].distances[-1]
    ) + 0.3

    evaluator = ContinuousEvaluator(target)
    knn_notes, range_notes = [], []
    evaluator.subscribe(KnnWatch(query=query, k=K), sink=knn_notes.append)
    evaluator.subscribe(
        RangeWatch(query=query, radius=radius), sink=range_notes.append
    )
    live = apply_ops(evaluator, ops, query)
    assert live, f"[{name}] op sequence emptied the collection"

    # a consumer's state is simply the last notification: every snapshot
    # carries the complete current frontier
    knn_last, range_last = knn_notes[-1], range_notes[-1]
    scratch_knn = target.knn_batch(query[None, :], QueryOptions(k=K)).results[0]
    assert list(knn_last.ids) == list(scratch_knn.ids), name
    assert list(knn_last.distances) == list(scratch_knn.distances), name

    scratch_range = target.range_query(query, radius)
    assert list(range_last.ids) == list(scratch_range.ids), name
    assert list(range_last.distances) == list(scratch_range.distances), name

    # seqs are gapless and strictly increasing per subscription
    for notes in (knn_notes, range_notes):
        assert [n.seq for n in notes] == list(range(1, len(notes) + 1)), name
