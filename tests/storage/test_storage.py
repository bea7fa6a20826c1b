"""Tests for the paged store and the disk-backed database."""

import numpy as np
import pytest

from repro.io import open_database
from repro.reduction import SAPLAReducer
from repro.storage import DiskBackedDatabase, PagedSeriesStore
from repro.storage.database import STORE_FILENAME

DATA = np.random.default_rng(0).normal(size=(40, 64)).cumsum(axis=1)


class TestPagedStore:
    def test_write_and_read_round_trip(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "store.bin", DATA)
        for i in (0, 7, 39):
            np.testing.assert_allclose(store.read(i), DATA[i])

    def test_open_existing(self, tmp_path):
        PagedSeriesStore.write(tmp_path / "store.bin", DATA)
        store = PagedSeriesStore.open(tmp_path / "store.bin")
        assert len(store) == 40
        assert store.length == 64
        np.testing.assert_allclose(store.read(3), DATA[3])

    def test_page_reads_counted(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA, page_size=256)
        store.stats.reset()
        store.read(0)
        assert store.stats.page_reads == 2  # 64 * 8 bytes after the header: pages 1 and 2
        store.read(0)
        assert store.stats.page_reads == 4  # no cache: every read is charged

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PagedSeriesStore(tmp_path / "x.bin", page_size=8)
        with pytest.raises(ValueError):
            PagedSeriesStore.write(tmp_path / "x.bin", np.zeros(4))
        store = PagedSeriesStore.write(tmp_path / "ok.bin", DATA)
        with pytest.raises(IndexError):
            store.read(100)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\0" * 8)
        with pytest.raises(ValueError):
            PagedSeriesStore.open(path)


class TestDiskBackedDatabase:
    def test_search_matches_memory_database(self, tmp_path):
        from repro.index import SeriesDatabase

        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin", index="dbch")
        disk.ingest(DATA)
        memory = SeriesDatabase(SAPLAReducer(12), index="dbch")
        memory.ingest(DATA)
        query = DATA[5] + 0.05
        a = disk.knn(query, 4)
        b = memory.knn(query, 4)
        assert a.ids == b.ids
        assert a.distances == pytest.approx(b.distances)

    def test_io_tracks_verifications(self, tmp_path):
        disk = DiskBackedDatabase(
            SAPLAReducer(12), tmp_path / "db.bin", index=None
        )
        disk.ingest(DATA)
        disk.reset_io()
        result = disk.knn(DATA[0] + 0.01, 1)
        stats = disk.io_stats
        # pruning means far fewer page accesses than a full scan
        full_scan_accesses = len(DATA) * disk.store.pages_per_series()
        assert stats.page_reads < full_scan_accesses
        assert result.n_verified < len(DATA)

    def test_ground_truth_reads_everything(self, tmp_path):
        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin")
        disk.ingest(DATA)
        disk.reset_io()
        truth = disk.ground_truth(DATA[3], 2)
        assert truth.ids[0] == 3
        assert disk.io_stats.page_reads >= len(DATA)

    def test_search_before_ingest_rejected(self, tmp_path):
        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin")
        with pytest.raises(RuntimeError):
            disk.knn(np.zeros(8), 1)
        with pytest.raises(RuntimeError):
            disk.ground_truth(np.zeros(8), 1)

    def test_short_file_is_refused(self, tmp_path):
        """A page file cut short of its header's row count is corrupt: reads
        raise instead of returning a truncated row."""
        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin", index=None, page_size=512)
        disk.ingest(DATA[:10])
        disk.save(tmp_path / "home")
        path = tmp_path / "home" / STORE_FILENAME
        path.write_bytes(path.read_bytes()[:-96])  # the last row loses 12 points
        reopened = open_database(tmp_path / "home")  # reads the header only
        assert len(reopened.data) == 10
        with pytest.raises(ValueError):
            reopened.data[9]
        with pytest.raises(ValueError):
            reopened.data.gather([0, 9])
