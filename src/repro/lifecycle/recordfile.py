"""The durable record file both logs sit on: framing, replay, fsync policy.

The data WAL (:mod:`repro.lifecycle.wal`) and the subscription log
(:mod:`repro.continuous.registry`) must survive the same thing — a SIGKILL
at any instant — so they are one file format with one implementation:

``file   = magic (8 bytes) · record*``
``record = length u32 LE · crc32(payload) u32 LE · payload``

What a payload *means* is the owner's business (binary ops for the WAL,
JSON objects for subscriptions): it hands in a ``decode`` callable and gets
decoded records back.  What makes the file crash-safe lives only here:

* replay stops at the first record whose prefix is incomplete, whose
  length exceeds the payload cap (a corrupt prefix claiming gigabytes),
  whose payload is short or fails its CRC, or whose payload the codec
  rejects — everything before it is committed, the rest is the torn tail;
* a file shorter than its magic was killed between create and the header
  flush: it holds no record, reads as empty and is rewritten on open (a
  *full-length wrong* magic is some other file, and raises);
* opening for append truncates the torn tail, so new records never
  interleave with garbage;
* appends reach the OS at once (a flushed record survives SIGKILL) and
  stable storage per :class:`FsyncPolicy`.
"""

from __future__ import annotations

import enum
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

__all__ = ["DurabilityOptions", "FsyncPolicy", "RECORD_OVERHEAD", "RecordFile"]

PathLike = Union[str, pathlib.Path]

_PREFIX = struct.Struct("<II")  # payload length, crc32(payload)

#: bytes a record occupies on disk beyond its payload.
RECORD_OVERHEAD = _PREFIX.size


class FsyncPolicy(str, enum.Enum):
    """When appended records are forced to stable storage.

    ``ALWAYS`` fsyncs after every append — every acknowledged mutation is
    committed.  ``BATCH`` fsyncs every :attr:`DurabilityOptions.batch_records`
    appends (and on checkpoint/close) — bounded loss, much higher
    throughput.  ``NEVER`` leaves flushing to the OS — durability only at
    checkpoints.
    """

    ALWAYS = "always"
    BATCH = "batch"
    NEVER = "never"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DurabilityOptions:
    """Typed durability configuration for a mutable database.

    Args:
        wal: write a WAL at all; ``False`` trades crash safety for raw
            ingest throughput (recoverable state is then the last
            checkpoint only).
        fsync: a :class:`FsyncPolicy` (or its string value).
        batch_records: under ``FsyncPolicy.BATCH``, fsync once per this
            many appended records.
    """

    wal: bool = True
    fsync: "Union[FsyncPolicy, str]" = FsyncPolicy.BATCH
    batch_records: int = 64

    def __post_init__(self):
        object.__setattr__(self, "fsync", FsyncPolicy(self.fsync))
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")


class RecordFile:
    """An append-only file of checksummed records under one magic header.

    Args:
        path: where the file lives.
        magic: the header identifying the file's kind and format version.
        max_payload: replay treats a longer declared payload as corruption.
        decode: payload bytes -> record; raising ``ValueError`` or
            ``struct.error`` marks the payload (and the rest of the file)
            as torn.
        options: only the fsync policy fields apply.
        error: the ``ValueError`` subclass raised for a wrong magic or an
            append to a closed file, so each log keeps its own error type.
    """

    def __init__(
        self,
        path: PathLike,
        magic: bytes,
        max_payload: int,
        decode: Callable[[bytes], object],
        options: "Optional[DurabilityOptions]" = None,
        error: type = ValueError,
    ):
        self.path = pathlib.Path(path)
        self.magic = magic
        self.options = options if options is not None else DurabilityOptions()
        self._max_payload = max_payload
        self._decode = decode
        self._error = error
        self._handle = None
        self._unsynced = 0

    # -- replay ------------------------------------------------------------
    def read(self) -> "Tuple[List[object], int]":
        """Every committed record, and how many torn bytes follow them.

        A missing file reads as an empty log; one that starts with some
        other magic is not this kind of log at all and raises — replaying
        it would be worse than failing.
        """
        if not self.path.exists():
            return [], 0
        blob = self.path.read_bytes()
        if len(blob) < len(self.magic):
            return [], len(blob)  # torn before the header finished
        if blob[: len(self.magic)] != self.magic:
            raise self._error(f"{self.path} does not start with {self.magic!r} (bad magic)")
        records: "List[object]" = []
        offset = len(self.magic)
        while offset + _PREFIX.size <= len(blob):
            length, crc = _PREFIX.unpack_from(blob, offset)
            if length > self._max_payload:
                break
            start = offset + _PREFIX.size
            payload = blob[start : start + length]
            if len(payload) != length or zlib.crc32(payload) != crc:
                break
            try:
                records.append(self._decode(payload))
            except (ValueError, struct.error):
                break
            offset = start + length
        return records, len(blob) - offset

    def open(self) -> "Tuple[List[object], int]":
        """Open for appending; returns what :meth:`read` found.

        An existing log is truncated to its last committed record; a
        missing one — or one torn inside its header — starts fresh.
        """
        records, torn = self.read()
        valid_end = (self.path.stat().st_size if self.path.exists() else 0) - torn
        if valid_end:
            self._handle = open(self.path, "r+b")
            self._handle.truncate(valid_end)
            self._handle.seek(valid_end)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "wb")
            self._handle.write(self.magic)
            self.sync()
        return records, torn

    # -- append ------------------------------------------------------------
    def _open_handle(self):
        if self._handle is None:
            raise self._error(f"{self.path} is closed")
        return self._handle

    def append(self, payload: bytes) -> bool:
        """Write one record; ``True`` when the policy fsynced it.

        The record always reaches the OS before this returns, so it
        survives a SIGKILL; surviving power loss is the policy's call.
        """
        handle = self._open_handle()
        handle.write(_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload)
        self._unsynced += 1
        policy = self.options.fsync
        if policy is FsyncPolicy.ALWAYS or (
            policy is FsyncPolicy.BATCH and self._unsynced >= self.options.batch_records
        ):
            return self.sync()
        handle.flush()
        return False

    def sync(self) -> bool:
        """Flush and fsync; ``True`` when records were waiting on it."""
        if self._handle is None:
            return False
        self._handle.flush()
        os.fsync(self._handle.fileno())
        pending, self._unsynced = self._unsynced, 0
        return pending > 0

    def reset(self) -> None:
        """Truncate to an empty log (header only) and fsync."""
        handle = self._open_handle()
        handle.truncate(len(self.magic))
        handle.seek(len(self.magic))
        self.sync()

    def size_bytes(self) -> int:
        """Current size of the records, excluding the magic."""
        if self._handle is not None:
            self._handle.flush()
        return max(self.path.stat().st_size - len(self.magic), 0)

    def close(self) -> bool:
        """Flush, fsync and release the file handle (idempotent); ``True``
        when records were waiting on that fsync."""
        pending = self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return pending
