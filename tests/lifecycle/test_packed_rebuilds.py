"""Compaction rebuilds its index the way a fresh bulk build does.

:func:`repro.lifecycle.compact` re-ingests the survivors with their stored
representations and packs the tree once, so the compacted database must
equal ``ingest(survivor rows, representations, bulk=True)`` — tree shape,
leaf membership, answers and counters — on both row-store kinds, and the
packed tree must keep its invariants under further inserts and deletes.
"""

import numpy as np
import pytest

from repro.engine.states import gather_rows
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import IndexKind
from repro.lifecycle import DurabilityOptions, compact
from repro.reduction import REDUCERS
from repro.storage import DiskBackedDatabase
from tests.io.test_reopen_packs import (
    CONFIGS,
    LENGTH,
    assert_same_database,
    check_invariants,
    live_ids,
)


def churned(tmp_path, kind, name, index):
    """A durable home with tombstones from both the saved state and the WAL."""
    rng = np.random.default_rng(4)
    reducer = REDUCERS[name](6)
    if kind == "disk":
        db = DiskBackedDatabase(
            reducer, tmp_path / "live.bin", index=index
        )
    else:
        db = SeriesDatabase(reducer, index=index)
    db.ingest(rng.normal(size=(30, LENGTH)).cumsum(axis=1))
    for series_id in (2, 9, 17):
        db.delete(series_id)
    db.save(tmp_path / "home")
    db = open_database(tmp_path / "home", durability=DurabilityOptions())
    db.insert_batch(rng.normal(size=(5, LENGTH)).cumsum(axis=1))
    for series_id in (0, 21, 31):
        db.delete(series_id)
    return db


def survivors_bulk_built(db):
    """``ingest(survivor rows, representations, bulk=True)`` from scratch."""
    entries = sorted(db.entries, key=lambda e: e.series_id)
    reference = SeriesDatabase(
        REDUCERS[db.reducer.name](db.reducer.n_coefficients),
        index=db.index_kind,
        max_entries=db.max_entries,
        min_entries=db.min_entries,
    )
    reference.ingest(
        gather_rows(db.data, [e.series_id for e in entries]),
        representations=[e.representation for e in entries],
        bulk=True,
    )
    return reference


@pytest.mark.parametrize("kind", ["memory", "disk"])
@pytest.mark.parametrize("name,index", CONFIGS)
class TestCompactionPacks:
    def test_compacted_tree_equals_a_fresh_bulk_build(self, tmp_path, kind, name, index):
        db = churned(tmp_path, kind, name, index)
        reference = survivors_bulk_built(db)
        compact(db)
        assert_same_database(db, reference)
        db.wal.close()
        # the compacted home reopens (packed again) to the same database
        assert_same_database(open_database(tmp_path / "home"), reference)

    def test_compacted_tree_keeps_its_invariants(self, tmp_path, kind, name, index):
        db = churned(tmp_path, kind, name, index)
        compact(db)
        check_invariants(db)
        ids = live_ids(db)
        rng = np.random.default_rng(12)
        for row in rng.normal(size=(6, LENGTH)).cumsum(axis=1):
            ids.append(db.insert(row))
            check_invariants(db)
        for series_id in ids[1::3]:
            db.delete(series_id)
            check_invariants(db)
        assert len(db.tree) == len(db)
        db.wal.close()


def test_compacting_an_unsaved_database_packs_in_place():
    rng = np.random.default_rng(6)
    db = SeriesDatabase(
        REDUCERS["SAPLA"](6), index=IndexKind.DBCH
    )
    db.ingest(rng.normal(size=(26, LENGTH)).cumsum(axis=1))  # grown by insertion
    for series_id in (1, 8, 13, 20):
        db.delete(series_id)
    reference = survivors_bulk_built(db)
    report = compact(db)
    assert report.directory is None
    assert_same_database(db, reference)
