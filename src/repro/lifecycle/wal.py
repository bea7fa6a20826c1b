"""The write-ahead log for mutable databases: ops, LSNs and their codec.

Every ``insert``/``delete`` against a durably-opened database appends one
record here *before* the in-memory (or paged) state changes, so a crash at
any instant loses at most the un-fsynced tail.  The file itself — magic,
length/CRC framing, torn-tail-tolerant replay, truncate-on-open, the fsync
policy — is a :class:`repro.lifecycle.recordfile.RecordFile`; this module
owns what goes *inside* a record:

``payload = op u8 · lsn u64 LE · op-specific body``

Bodies: ``insert`` carries ``series_id u64 · n u32 · n float64`` raw values,
``delete`` carries ``series_id u64``, ``checkpoint`` carries the folded row
count ``u64``.  LSNs increase monotonically and survive :meth:`~WriteAheadLog.reset`
(truncation after a checkpoint), so record ordering is globally unambiguous.
"""

from __future__ import annotations

import pathlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import obs
from .recordfile import RECORD_OVERHEAD, DurabilityOptions, FsyncPolicy, RecordFile

__all__ = [
    "DurabilityOptions",
    "FsyncPolicy",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "read_wal",
]

PathLike = Union[str, pathlib.Path]

#: identifies a WAL file and its format version.
MAGIC = b"RPWAL\x00\x01\n"

#: default WAL filename inside a database directory.
WAL_FILENAME = "wal.log"

_HEAD = struct.Struct("<BQ")  # op, lsn
_INSERT_HEAD = struct.Struct("<QI")  # series_id, n
_U64 = struct.Struct("<Q")

#: guards replay against a corrupt length prefix claiming gigabytes.
_MAX_PAYLOAD = 64 * 1024 * 1024

OP_INSERT, OP_DELETE, OP_CHECKPOINT = 1, 2, 3


class WalError(ValueError):
    """A structurally invalid WAL file (bad magic, impossible record)."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    op: str
    series_id: int = -1
    series: "Optional[np.ndarray]" = None
    row_count: int = -1  # checkpoint records: rows folded into the save


def _decode(payload: bytes) -> WalRecord:
    op, lsn = _HEAD.unpack_from(payload, 0)
    body = payload[_HEAD.size :]
    if op == OP_INSERT:
        series_id, n = _INSERT_HEAD.unpack_from(body, 0)
        values = np.frombuffer(body, dtype="<f8", count=n, offset=_INSERT_HEAD.size)
        return WalRecord(lsn=lsn, op="insert", series_id=int(series_id), series=values.copy())
    if op == OP_DELETE:
        (series_id,) = _U64.unpack_from(body, 0)
        return WalRecord(lsn=lsn, op="delete", series_id=int(series_id))
    if op == OP_CHECKPOINT:
        (row_count,) = _U64.unpack_from(body, 0)
        return WalRecord(lsn=lsn, op="checkpoint", row_count=int(row_count))
    raise WalError(f"unknown WAL op {op}")


def _record_file(path: PathLike, options: "Optional[DurabilityOptions]" = None) -> RecordFile:
    return RecordFile(path, MAGIC, _MAX_PAYLOAD, _decode, options, error=WalError)


def _replayed(scan) -> "Tuple[List[WalRecord], int]":
    """Run one record-file ``scan`` (read or open) under the replay metrics."""
    with obs.span("wal.replay"):
        records, torn = scan()
    if obs.is_enabled():
        obs.count("wal.records_replayed", len(records))
        if torn:
            obs.count("wal.torn_bytes", torn)
    return records, torn


def read_wal(path: PathLike) -> "Tuple[List[WalRecord], int]":
    """Read every committed record of ``path``; torn tails are dropped.

    Returns ``(records, torn_bytes)``.  A missing file reads as an empty
    log; a file that exists but does not start with the WAL magic raises
    :class:`WalError` (it is not a log at all — replaying it would be
    worse than failing).
    """
    return _replayed(_record_file(path).read)


class WriteAheadLog:
    """Append-only log handle with a configurable fsync policy.

    Open with :meth:`open` (which truncates any torn tail and resumes the
    LSN sequence), append with :meth:`append_insert` /
    :meth:`append_delete` / :meth:`append_checkpoint`, and fold with
    :meth:`reset` after a checkpoint has persisted the state elsewhere.
    """

    def __init__(self, path: PathLike, options: "Optional[DurabilityOptions]" = None):
        self._file = _record_file(path, options)
        self.path = self._file.path
        self.options = self._file.options
        self.last_lsn = 0

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: PathLike, options: "Optional[DurabilityOptions]" = None
    ) -> "WriteAheadLog":
        """Open ``path`` for appending, creating it or trimming a torn tail."""
        wal = cls(path, options)
        records, _ = _replayed(wal._file.open)
        wal.last_lsn = records[-1].lsn if records else 0
        return wal

    # ------------------------------------------------------------------
    def append_insert(self, series_id: int, series: np.ndarray) -> int:
        """Log one insert; returns its LSN."""
        values = np.ascontiguousarray(np.asarray(series, dtype="<f8")).ravel()
        body = _INSERT_HEAD.pack(series_id, len(values)) + values.tobytes()
        return self._append(OP_INSERT, body)

    def append_delete(self, series_id: int) -> int:
        """Log one delete; returns its LSN."""
        return self._append(OP_DELETE, _U64.pack(series_id))

    def append_checkpoint(self, row_count: int) -> int:
        """Log a checkpoint marker (``row_count`` rows folded); fsyncs."""
        lsn = self._append(OP_CHECKPOINT, _U64.pack(row_count))
        self.sync()
        obs.count("wal.checkpoints")
        return lsn

    def _append(self, op: int, body: bytes) -> int:
        payload = _HEAD.pack(op, self.last_lsn + 1) + body
        fsynced = self._file.append(payload)
        self.last_lsn += 1
        if obs.is_enabled():
            obs.count("wal.appends")
            obs.count("wal.bytes_written", len(payload) + RECORD_OVERHEAD)
            if fsynced:
                obs.count("wal.fsyncs")
        return self.last_lsn

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush buffered records and fsync the file."""
        if self._file.sync():
            obs.count("wal.fsyncs")

    def reset(self) -> None:
        """Truncate to an empty log (after a checkpoint folded the records).

        The LSN sequence continues — ordering stays unambiguous across
        truncations.
        """
        self._file.reset()

    def size_bytes(self) -> int:
        """Current log size (records only, excluding the magic)."""
        return self._file.size_bytes()

    def close(self) -> None:
        """Flush, fsync and release the file handle."""
        if self._file.close():
            obs.count("wal.fsyncs")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
