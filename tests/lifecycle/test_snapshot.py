"""Snapshot-consistent serving: generation counter, pinning, deferred ops."""

import numpy as np
import pytest

from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA


def make_db(rows=20, length=32, seed=0):
    rng = np.random.default_rng(seed)
    db = SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.DBCH)
    db.ingest(rng.normal(size=(rows, length)))
    return db, rng


class TestGeneration:
    def test_bumps_once_per_visible_mutation(self):
        db, rng = make_db()
        g0 = db.generation
        db.insert(rng.normal(size=32))
        assert db.generation == g0 + 1
        db.delete(0)
        assert db.generation == g0 + 2

    def test_failed_delete_does_not_bump(self):
        db, _ = make_db()
        g0 = db.generation
        assert not db.delete(999)
        assert db.generation == g0


class TestSnapshotPinning:
    def test_pinned_view_is_stable_while_mutations_land(self):
        db, rng = make_db()
        snap = db.snapshot()
        entries_before = list(snap.entries)
        gen_before = snap.generation
        db.insert(rng.normal(size=32))
        db.delete(1)
        # the snapshot's view is untouched
        assert snap.entries is entries_before or snap.entries == entries_before
        assert snap.generation == gen_before
        assert len(snap.entries) == 20
        snap.release()
        # mutations became visible in order after the unpin
        assert len(db.entries) == 20  # +1 insert, -1 delete
        assert db.generation == gen_before + 2
        assert all(e.series_id != 1 for e in db.entries)

    def test_raw_row_lands_immediately_but_entry_defers(self):
        db, rng = make_db()
        with db.snapshot() as snap:
            sid = db.insert(rng.normal(size=32))
            assert sid == 20
            assert db.data.shape[0] == 21  # raw row appended at once
            assert len(snap.entries) == 20  # index visibility deferred
        assert len(db.entries) == 21

    def test_nested_snapshots_release_in_any_order(self):
        db, rng = make_db()
        a = db.snapshot()
        b = db.snapshot()
        db.insert(rng.normal(size=32))
        a.release()
        assert len(db.entries) == 20  # still pinned by b
        b.release()
        assert len(db.entries) == 21

    def test_release_is_idempotent(self):
        db, _ = make_db()
        snap = db.snapshot()
        snap.release()
        snap.release()
        db.delete(0)
        assert len(db.entries) == 19

    def test_searches_through_snapshot_ignore_concurrent_inserts(self):
        db, rng = make_db(rows=30)
        q = rng.normal(size=32)
        before = db.knn(q, 5)
        snap = db.snapshot()
        near_duplicate = db.data[before.ids[0]] + 1e-9
        db.insert(near_duplicate)
        # a fresh query through the pinned view sees the old entry set
        from repro.engine import QueryOptions

        pinned_result = snap.engine().knn_batch(q[None, :], QueryOptions(k=5))
        assert pinned_result.results[0].ids == before.ids
        snap.release()
        after = db.knn(q, 5)
        assert 30 in after.ids  # the duplicate ranks at/near the top now

    def test_flush_pending_refuses_while_pinned(self):
        db, rng = make_db()
        snap = db.snapshot()
        db.insert(rng.normal(size=32))
        with pytest.raises(RuntimeError):
            db._flush_pending()
        snap.release()


class TestBatchGeneration:
    def test_batch_result_reports_serving_generation(self):
        db, rng = make_db()
        batch = db.knn_batch(rng.normal(size=(3, 32)))
        assert batch.generation == db.generation
        db.insert(rng.normal(size=32))
        batch2 = db.knn_batch(rng.normal(size=(2, 32)))
        assert batch2.generation == batch.generation + 1


class TestAmortisedInsert:
    def test_buffer_doubles_not_copies_per_insert(self):
        db, rng = make_db(rows=4)
        buffers = set()
        for _ in range(60):
            db.insert(rng.normal(size=32))
            buffers.add(id(db._rows._buf))
        # 4 -> 64 rows should reallocate only a handful of times
        assert len(buffers) <= 6
        assert db.data.shape == (64, 32)

    def test_insert_into_empty_database(self):
        db = SeriesDatabase(PAA(n_coefficients=4), index=None)
        sid = db.insert(np.arange(16, dtype=float))
        assert sid == 0
        assert db.knn(np.arange(16, dtype=float), 1).ids == [0]
