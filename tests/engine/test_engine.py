"""Engine behaviour: errors, deadlines, metrics, disk route."""

import numpy as np
import pytest

from repro import obs
from repro.engine import QueryEngine, QueryOptions
from repro.engine.states import BLOCK_ROWS
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.reduction import PAA, SAPLAReducer
from repro.storage import DiskBackedDatabase


@pytest.fixture(autouse=True)
def clean_obs_state():
    prev_reg = obs.set_registry(MetricsRegistry(enabled=False))
    prev_rec = obs.set_recorder(SpanRecorder(enabled=False))
    yield
    obs.set_registry(prev_reg)
    obs.set_recorder(prev_rec)


def dataset(count=30, n=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


def build(count=30, index=None):
    data = dataset(count)
    db = SeriesDatabase(PAA(8), index=index)
    db.ingest(data)
    return db, data


class TestValidation:
    def test_empty_database_raises(self):
        db = SeriesDatabase(PAA(8), index=None)
        with pytest.raises(RuntimeError):
            db.knn_batch(np.zeros((2, 16)), QueryOptions(k=1))

    def test_non_2d_queries_rejected(self):
        db, data = build()
        with pytest.raises(ValueError):
            db.engine().knn_batch(data[0], QueryOptions(k=1))

    def test_default_options_are_k1(self):
        db, data = build()
        batch = db.knn_batch(data[:3])
        assert all(len(r.ids) == 1 for r in batch.results)


class TestDeadline:
    def test_expired_deadline_reports_timeouts_with_partial_results(self):
        db, data = build(count=60)
        batch = db.knn_batch(data[:8], QueryOptions(k=4, deadline_s=1e-9))
        assert batch.timed_out == list(range(8))
        assert len(batch.results) == 8

    def test_generous_deadline_times_nothing_out(self):
        db, data = build()
        batch = db.knn_batch(data[:4], QueryOptions(k=4, deadline_s=60.0))
        assert batch.timed_out == []


class TestMetrics:
    def test_engine_counters_and_span_recorded(self):
        db, data = build()
        with obs.capture() as session:
            db.knn_batch(data[:5], QueryOptions(k=3))
        report = session.report()
        assert report.counters["engine.batches"] == 1
        assert report.counters["engine.rounds"] > 0
        assert report.counters["engine.pairs_verified"] > 0
        assert report.counters["knn.queries"] == 5
        assert report.counters["knn.entries_refined"] == report.counters[
            "engine.pairs_verified"
        ]
        names = []
        pending = list(report.spans)
        while pending:
            node = pending.pop()
            names.append(node["name"])
            pending.extend(node.get("children", ()))
        assert "engine.knn_batch" in names

    def test_per_query_accounting_matches_single_knn(self):
        """Batch members carry the same counters a lone knn() would record."""
        data = dataset()
        db = SeriesDatabase(SAPLAReducer(8), index=IndexKind.DBCH)
        db.ingest(data)
        query = data[4] + 0.05
        with obs.capture() as single_session:
            single = db.knn(query, 4)
        with obs.capture() as batch_session:
            db.knn_batch(query[None, :], QueryOptions(k=4))
        single_counters = single_session.report().counters
        batch_counters = batch_session.report().counters
        for name in (
            "knn.entries_refined",
            "knn.nodes_visited",
            "knn.heap_pushes",
            "knn.pruned.dist_lb",
        ):
            assert batch_counters[name] == single_counters[name]
        assert single.n_verified == batch_counters["knn.entries_refined"]


class TestDiskRoute:
    def test_disk_backed_database_batches(self, tmp_path):
        data = dataset(count=20)
        db = DiskBackedDatabase(
            PAA(8), tmp_path / "store.bin", index=None
        )
        db.ingest(data)
        batch = db.knn_batch(data[:3], QueryOptions(k=4))
        memory = SeriesDatabase(PAA(8), index=None)
        memory.ingest(data)
        expected = memory.knn_batch(data[:3], QueryOptions(k=4))
        for a, b in zip(batch.results, expected.results):
            assert a.ids == b.ids
            assert a.distances == b.distances

    def test_disk_scan_charges_the_discarded_tail(self, tmp_path):
        """A scan gathers whole blocks, so rows its replay discards are
        physically read and charged — at most ``BLOCK_ROWS - 1`` rows past
        ``n_verified`` per query — while ``n_verified`` stays the memory
        kind's."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(512, 256)).cumsum(axis=1)
        queries = np.concatenate(
            [data[:16] + rng.normal(0.0, 0.05, (16, 256)), dataset(16, 256, seed=2)]
        )
        disk = DiskBackedDatabase(
            SAPLAReducer(12), tmp_path / "store.bin", index=None, page_size=2048,
        )
        disk.ingest(data)
        memory = SeriesDatabase(SAPLAReducer(12), index=None)
        memory.ingest(data)
        pages = disk.store.pages_per_series()
        assert pages == 1.0  # 256 float64 points: one page-aligned page per row
        read = verified = 0
        for query in queries:
            disk.reset_io()
            got, expected = disk.knn(query, 8), memory.knn(query, 8)
            assert (got.ids, got.distances) == (expected.ids, expected.distances)
            assert got.n_verified == expected.n_verified
            accesses = disk.io_stats.page_reads
            assert got.n_verified * pages <= accesses
            assert accesses <= (got.n_verified + BLOCK_ROWS - 1) * pages
            read += accesses
            verified += got.n_verified
        assert read > verified
