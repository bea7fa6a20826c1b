"""What only the WAL has: ops, LSNs, torn-byte reporting, ``reset``.

The file-level behaviour it shares with the subscription log (torn tails,
bad magic, fsync cadence) is in ``test_recordfile.py``.
"""

import numpy as np
import pytest

from repro.lifecycle import (
    DurabilityOptions,
    FsyncPolicy,
    WalError,
    WriteAheadLog,
    read_wal,
)
from repro.lifecycle.wal import MAGIC


def test_round_trip_insert_delete_checkpoint(tmp_path):
    path = tmp_path / "wal.log"
    series = np.arange(8, dtype=float)
    with WriteAheadLog.open(path) as wal:
        wal.append_insert(0, series)
        wal.append_delete(0)
        wal.append_checkpoint(1)
    records, torn = read_wal(path)
    assert torn == 0
    assert [r.op for r in records] == ["insert", "delete", "checkpoint"]
    assert records[0].series_id == 0
    np.testing.assert_array_equal(records[0].series, series)
    assert records[1].series_id == 0
    assert records[2].row_count == 1
    assert [r.lsn for r in records] == [1, 2, 3]


def test_missing_file_reads_empty(tmp_path):
    records, torn = read_wal(tmp_path / "absent.log")
    assert records == [] and torn == 0


def test_torn_bytes_are_reported(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog.open(path) as wal:
        wal.append_insert(0, np.ones(4))
        wal.append_insert(1, np.ones(4))
    clean = path.read_bytes()
    # simulate a crash mid-append: half a record of garbage at the tail
    path.write_bytes(clean + b"\x99" * 7)
    records, torn = read_wal(path)
    assert len(records) == 2
    assert torn == 7
    path.write_bytes(MAGIC[:3])  # torn inside the header: all of it is torn
    assert read_wal(path) == ([], 3)


def test_non_wal_file_raises_wal_error(tmp_path):
    path = tmp_path / "junk.log"
    path.write_bytes(b"definitely not a WAL file at all")
    with pytest.raises(WalError):
        read_wal(path)


def test_open_truncates_torn_tail_and_resumes_lsn(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog.open(path) as wal:
        wal.append_insert(0, np.ones(4))
        wal.append_insert(1, np.ones(4))
    size_clean = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(b"\x00" * 11)
    with WriteAheadLog.open(path) as wal:
        assert path.stat().st_size == size_clean  # tail trimmed on open
        assert wal.last_lsn == 2
        assert wal.append_delete(0) == 3
    records, torn = read_wal(path)
    assert torn == 0
    assert [r.lsn for r in records] == [1, 2, 3]


def test_reset_truncates_but_lsn_continues(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog.open(path) as wal:
        wal.append_insert(0, np.ones(4))
        wal.reset()
        assert path.read_bytes() == MAGIC
        assert wal.append_insert(1, np.ones(4)) == 2  # LSN survives truncation
    records, _ = read_wal(path)
    assert [r.lsn for r in records] == [2]


def test_size_bytes_excludes_magic(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog.open(path) as wal:
        assert wal.size_bytes() == 0
        wal.append_delete(7)
        assert wal.size_bytes() > 0


class TestDurabilityOptions:
    def test_string_policy_coerces(self):
        assert DurabilityOptions(fsync="always").fsync is FsyncPolicy.ALWAYS

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            DurabilityOptions(batch_records=0)
