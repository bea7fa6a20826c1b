"""Interleaved insert/delete/knn_batch equals a freshly built database.

For any sequence of mutations, the surviving series must answer queries
exactly as if a new database had been built from just those series — ids
mapped through the survivors' rank order, distances bit-identical.  Runs
across reducer x index kind; the configurations all use guaranteed lower
bounds (PAA aligned, SAPLA with Dist_LB) so answers are exact
and independent of tree shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA, SAPLAReducer

LENGTH = 32
K = 4

CONFIGS = [
    ("paa-dbch", lambda: SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.DBCH)),
    ("paa-rtree", lambda: SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.RTREE)),
    ("paa-scan", lambda: SeriesDatabase(PAA(n_coefficients=8), index=None)),
    (
        "sapla-lb-dbch",
        lambda: SeriesDatabase(
            SAPLAReducer(8), index=IndexKind.DBCH
        ),
    ),
]


def op_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 2**31 - 1)),
            st.tuples(st.just("delete"), st.integers(0, 59)),
            st.tuples(st.just("query"), st.integers(0, 2**31 - 1)),
        ),
        min_size=1,
        max_size=24,
    )


def row_from(seed):
    return np.random.default_rng(seed).normal(size=LENGTH)


@pytest.mark.parametrize("name,factory", CONFIGS, ids=[c[0] for c in CONFIGS])
@given(ops=op_strategy())
@settings(max_examples=12, deadline=None)
def test_interleaved_mutations_match_fresh_database(name, factory, ops):
    rng = np.random.default_rng(7)
    base = rng.normal(size=(12, LENGTH))
    db = factory()
    db.ingest(base)
    rows = {i: base[i] for i in range(12)}  # id -> raw row, survivors only
    next_id = 12

    deferred_queries = []
    for op, value in ops:
        if op == "insert":
            sid = db.insert(row_from(value))
            assert sid == next_id
            rows[sid] = row_from(value)
            next_id += 1
        elif op == "delete":
            expected = value in rows
            assert db.delete(value) == expected
            rows.pop(value, None)
        else:
            deferred_queries.append(row_from(value))
    if not rows:
        return
    queries = np.asarray(deferred_queries[-3:] or [rng.normal(size=LENGTH)])

    # fresh database over the surviving rows, in ascending original-id order
    survivors = sorted(rows)
    fresh = factory()
    fresh.ingest(np.asarray([rows[sid] for sid in survivors]))
    id_map = dict(enumerate(survivors))  # fresh id -> original id

    k = min(K, len(survivors))
    got = db.knn_batch(queries, QueryOptions(k=k))
    want = fresh.knn_batch(queries, QueryOptions(k=k))
    for mutated, rebuilt in zip(got.results, want.results):
        assert mutated.ids == [id_map[i] for i in rebuilt.ids]
        assert mutated.distances == rebuilt.distances  # bit-identical
