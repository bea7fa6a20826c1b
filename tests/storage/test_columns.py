"""The page file's memory-mapped rows: the one read path of a disk store.

The page file's row region is mapped as one read-only ``float64`` matrix
that shares bytes with the file itself, so rows read through it are
bit-identical to the rows written — and the physical-I/O accounting charges
every row the pages it spans.
"""

import numpy as np

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
        np.testing.assert_array_equal(mapped[ids], DATA[ids])
        np.testing.assert_array_equal(np.asarray(mapped), DATA)
        for sid in ids:
            np.testing.assert_array_equal(store.read(sid), DATA[sid])

    def test_mapped_block_cached_until_append(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA)
        first = store.mapped_rows()
        assert store.mapped_rows() is first
        with obs.capture() as session:
            store.put_row(len(store), DATA[0] + 1.0)
            remapped = store.mapped_rows()
            np.testing.assert_array_equal(store.read(len(DATA)), DATA[0] + 1.0)
        assert session.report().counters["columns.builds"] == 1  # one remap
        assert remapped is not first
        assert remapped.shape[0] == len(DATA) + 1
        np.testing.assert_array_equal(remapped[len(DATA)], DATA[0] + 1.0)

    def test_overwrite_is_seen_by_the_next_read_and_gather(self, tmp_path):
        """Replay heals a torn row with an in-place ``put_row``; the mapping
        shares the file's bytes, so no remap is needed to see the heal."""
        db = disk_rows(tmp_path)
        before = db.data.gather([4, 5])  # maps the file
        healed = DATA[5] * 2.0 - 3.0
        with obs.capture() as session:
            db.store.put_row(5, healed)
            np.testing.assert_array_equal(db.data[5], healed)
            np.testing.assert_array_equal(db.data.gather([4, 5]), [DATA[4], healed])
        assert "columns.builds" not in session.report().counters
        np.testing.assert_array_equal(before, DATA[[4, 5]])  # gathers are copies

    def test_gather_charges_physical_pages(self, tmp_path):
        db = disk_rows(tmp_path, page_size=256)
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

    def test_columns_is_the_raw_rows_without_a_copy(self, tmp_path):
        disk = disk_rows(tmp_path)
        assert disk.columns() is disk.store.mapped_rows()
        np.testing.assert_array_equal(np.asarray(disk.columns()), DATA)
        memory = SeriesDatabase(PAA(8), index=None)
        assert memory.columns() is None
        memory.ingest(DATA)
        assert memory.columns() is memory.data
