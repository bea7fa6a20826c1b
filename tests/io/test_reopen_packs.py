"""A reopened home packs its index once, after WAL replay.

``open_database`` adopts the saved entries, replays the write-ahead log
into them with no tree present, and then bulk-loads the index over the live
entries in id order.  The reopened tree must therefore be *exactly* the
tree ``ingest(live rows, representations, live_ids, bulk=True)`` builds —
same node count and height, same leaf membership, same answers and
counters — on both row-store kinds, with or without tombstones in the saved
state, and over a WAL tail that interleaves insert runs with deletes.
Opening must make no incremental tree insert at all.
"""

import numpy as np
import pytest

import repro.index.knn as knn_module
from repro.engine.states import gather_rows
from repro.index import SeriesDatabase
from repro.index.dbch import DBCHTree
from repro.index.rtree import RTree
from repro.io import open_database
from repro.kinds import IndexKind
from repro.lifecycle import DurabilityOptions
from repro.reduction import REDUCERS
from repro.storage import DiskBackedDatabase
from tests.index.test_dbch import check_invariants as check_dbch
from tests.index.test_rtree import check_invariants as check_rtree

LENGTH = 32
BASE_ROWS = 24

#: (reducer, index) pairs: the paper's adaptive method on its DBCH-tree, and
#: an equal-length method on the R-tree baseline
CONFIGS = [("SAPLA", IndexKind.DBCH), ("PAA", IndexKind.RTREE)]


def tree_signature(tree):
    """Node count, height and leaf membership (by series id, in walk order)."""
    leaves = [
        tuple(e.series_id for e in node.entries) for node in tree.iter_nodes() if node.is_leaf
    ]
    return sum(1 for _ in tree.iter_nodes()), tree.height, leaves


def check_invariants(db):
    (check_dbch if db.index_kind is IndexKind.DBCH else check_rtree)(db.tree)


def packed_reference(db):
    """A fresh ``ingest(..., bulk=True)`` of ``db``'s live rows and representations."""
    reference = SeriesDatabase(
        REDUCERS[db.reducer.name](db.reducer.n_coefficients),
        index=db.index_kind,
        max_entries=db.max_entries,
        min_entries=db.min_entries,
    )
    entries = sorted(db.entries, key=lambda e: e.series_id)
    reference.ingest(
        gather_rows(db.data, range(db.count)),
        representations=[e.representation for e in entries],
        live_ids=[e.series_id for e in entries],
        bulk=True,
    )
    return reference


def query_grid(seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, LENGTH)).cumsum(axis=1)


def live_ids(db):
    """``db``'s live series ids, ascending."""
    return sorted(e.series_id for e in db.entries)


def assert_same_database(reopened, reference):
    assert tree_signature(reopened.tree) == tree_signature(reference.tree)
    assert live_ids(reopened) == live_ids(reference)
    assert len(reopened) == len(reference)
    for query in query_grid():
        for k in (1, 4, 9):
            assert reopened.knn(query, k) == reference.knn(query, k)


def saved_home(tmp_path, kind, reducer_name, index, tombstones):
    """A saved home plus the live database that keeps writing to its WAL.

    The WAL tail interleaves insert runs with a delete of a base row, a
    delete of a row the log itself inserted, and a repeated delete.
    """
    rng = np.random.default_rng(3)
    reducer = REDUCERS[reducer_name](6)
    if kind == "disk":
        db = DiskBackedDatabase(
            reducer, tmp_path / "live.bin", index=index
        )
    else:
        db = SeriesDatabase(reducer, index=index)
    db.ingest(rng.normal(size=(BASE_ROWS, LENGTH)).cumsum(axis=1))
    if tombstones:
        db.delete(3)
        db.delete(10)
    home = tmp_path / "home"
    db.save(home)

    live = open_database(home, durability=DurabilityOptions())
    live.insert_batch(rng.normal(size=(4, LENGTH)).cumsum(axis=1))
    live.delete(5)  # a base row
    replayed = live.insert(rng.normal(size=LENGTH).cumsum())
    live.insert_batch(rng.normal(size=(3, LENGTH)).cumsum(axis=1))
    live.delete(replayed)  # a row only the WAL holds
    live.wal.append_delete(5)  # a repeat delete: replay must skip it
    live.insert_batch(rng.normal(size=(6, LENGTH)).cumsum(axis=1))
    live.wal.close()
    return home, live


CASES = [
    pytest.param(
        kind, name, index, tombstones, id=f"{kind}-{name}-{'live_ids' if tombstones else 'all'}"
    )
    for kind in ("memory", "disk")
    for name, index in CONFIGS
    for tombstones in (False, True)
]


@pytest.mark.parametrize("kind,reducer_name,index,tombstones", CASES)
class TestReopenPacksOnce:
    def test_reopened_equals_a_fresh_bulk_build(
        self, tmp_path, kind, reducer_name, index, tombstones
    ):
        home, live = saved_home(tmp_path, kind, reducer_name, index, tombstones)
        reopened = open_database(home)
        assert reopened.count == live.count
        assert_same_database(reopened, packed_reference(live))

    def test_open_makes_no_tree_insert_and_one_pack(
        self, tmp_path, monkeypatch, kind, reducer_name, index, tombstones
    ):
        home, _ = saved_home(tmp_path, kind, reducer_name, index, tombstones)
        packs = []

        def counted(loader):
            def load(*args, **kwargs):
                packs.append(loader.__name__)
                return loader(*args, **kwargs)

            return load

        def refuse(self, entry):
            raise AssertionError("reopen must not insert into the tree")

        monkeypatch.setattr(knn_module, "bulk_load_dbch", counted(knn_module.bulk_load_dbch))
        monkeypatch.setattr(knn_module, "bulk_load_rtree", counted(knn_module.bulk_load_rtree))
        monkeypatch.setattr(DBCHTree, "insert", refuse)
        monkeypatch.setattr(RTree, "insert", refuse)
        reopened = open_database(home)
        assert len(packs) == 1
        assert reopened.tree is not None

    def test_invariants_hold_after_reopen_and_further_mutation(
        self, tmp_path, kind, reducer_name, index, tombstones
    ):
        home, _ = saved_home(tmp_path, kind, reducer_name, index, tombstones)
        reopened = open_database(home)
        check_invariants(reopened)
        ids = live_ids(reopened)
        rng = np.random.default_rng(11)
        for row in rng.normal(size=(7, LENGTH)).cumsum(axis=1):
            ids.append(reopened.insert(row))
            check_invariants(reopened)
        for series_id in ids[::4]:
            reopened.delete(series_id)
            check_invariants(reopened)
        assert len(reopened.tree) == len(reopened)


@pytest.mark.parametrize("name,index", CONFIGS)
def test_a_full_packed_leaf_splits_on_its_first_insert(tmp_path, name, index):
    rng = np.random.default_rng(5)
    db = SeriesDatabase(REDUCERS[name](6), index=index)
    db.ingest(rng.normal(size=(20, LENGTH)).cumsum(axis=1))  # packs four leaves of five
    db.save(tmp_path / "home")
    reopened = open_database(tmp_path / "home")
    leaves = [n for n in reopened.tree.iter_nodes() if n.is_leaf]
    assert [len(n.entries) for n in leaves] == [reopened.max_entries] * 4
    nodes_before = sum(1 for _ in reopened.tree.iter_nodes())
    reopened.insert(rng.normal(size=LENGTH).cumsum())
    assert sum(1 for _ in reopened.tree.iter_nodes()) > nodes_before
    check_invariants(reopened)


def test_a_home_without_a_wal_reopens_packed(tmp_path):
    data = np.random.default_rng(8).normal(size=(30, LENGTH)).cumsum(axis=1)
    db = SeriesDatabase(
        REDUCERS["SAPLA"](6), index=IndexKind.DBCH
    )
    db.ingest(data)  # the writer grows its tree by insertion
    db.save(tmp_path / "home")
    assert_same_database(open_database(tmp_path / "home"), packed_reference(db))
