"""The page file's memory-mapped rows and the batched page-store read path.

The page file's row region is mapped as one read-only ``float64`` matrix
that shares bytes with the file itself, so rows gathered through it are
bit-identical to per-row page reads — and the physical-I/O accounting must
say so too.
"""

import numpy as np
import pytest

from repro import obs
from repro.index import SeriesDatabase
from repro.reduction import PAA
from repro.storage import DiskBackedDatabase, PagedSeriesStore

DATA = np.random.default_rng(3).normal(size=(24, 48)).cumsum(axis=1)


def disk_rows(tmp_path, **store):
    """A disk-backed database's row view (``db.data``) over ``DATA``."""
    db = DiskBackedDatabase(PAA(8), tmp_path / "s.bin", index=None, **store)
    db.ingest(DATA)
    return db


class TestMappedBlock:
    def test_mapped_rows_are_bit_identical_to_reads(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        mapped = store.mapped_rows()
        assert mapped is not None
        assert mapped.dtype == np.float64 and mapped.shape == DATA.shape
        ids = [2, 19, 0, 7]
        np.testing.assert_array_equal(mapped[ids], store.get_rows(ids))
        np.testing.assert_array_equal(np.asarray(mapped), store.read_all())

    def test_mapped_block_cached_until_append(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        first = store.mapped_rows()
        assert store.mapped_rows() is first
        store.put_row(len(store), DATA[0] + 1.0)
        remapped = store.mapped_rows()
        assert remapped is not first
        assert remapped.shape[0] == len(DATA) + 1
        np.testing.assert_array_equal(remapped[len(DATA)], DATA[0] + 1.0)

    def test_gather_charges_physical_pages(self, tmp_path):
        db = disk_rows(tmp_path, page_size=256, cache_pages=2)
        db.reset_io()
        with obs.capture() as session:
            db.data.gather([0, 11])
        # 48 float64 values = 384 bytes: each row spans at least 2 pages of 256
        assert db.io_stats.page_reads >= 4
        assert session.report().counters["storage.page_reads"] == db.io_stats.page_reads

    def test_empty_store_maps_to_none(self, tmp_path):
        assert PagedSeriesStore(tmp_path / "never-written.bin").mapped_rows() is None

    def test_gather_returns_requested_order(self, tmp_path):
        got = disk_rows(tmp_path).data.gather([5, 0, 17, 5])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, DATA[[5, 0, 17, 5]])

    def test_counters(self, tmp_path):
        db = disk_rows(tmp_path)
        with obs.capture() as session:
            db.data.gather([1, 2])
            db.data.gather(np.array([3]))
        counters = session.report().counters
        assert counters["columns.builds"] == 1  # mapped once, reused until append
        assert counters["columns.gathers"] == 2

    def test_unmappable_file_falls_back_to_page_reads(self, tmp_path, monkeypatch):
        db = disk_rows(tmp_path)
        monkeypatch.setattr(db.store, "mapped_rows", lambda: None)
        with obs.capture() as session:
            got = db.data.gather([3, 9])
        np.testing.assert_array_equal(got, DATA[[3, 9]])
        assert session.report().counters["pages.batch_reads"] == 1

    def test_columns_is_the_raw_rows_without_a_copy(self, tmp_path):
        disk = disk_rows(tmp_path)
        assert disk.columns() is disk.store.mapped_rows()
        np.testing.assert_array_equal(np.asarray(disk.columns()), DATA)
        memory = SeriesDatabase(PAA(8), index=None)
        assert memory.columns() is None
        memory.ingest(DATA)
        assert memory.columns() is memory.data


class TestBatchedReads:
    def test_get_rows_matches_individual_reads(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        ids = [9, 3, 3, 21, 0]
        batched = store.get_rows(ids)
        for row, sid in zip(batched, ids):
            np.testing.assert_array_equal(row, store.read(sid))

    def test_get_rows_counts_one_batch(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        with obs.capture() as session:
            store.get_rows([1, 5, 9])
        assert session.report().counters["pages.batch_reads"] == 1

    def test_get_rows_validates_ids(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        with pytest.raises(IndexError):
            store.get_rows([0, len(DATA)])
