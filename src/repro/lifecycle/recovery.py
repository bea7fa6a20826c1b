"""Crash recovery: fold a write-ahead log back into a reopened database.

:func:`repro.io.open_database` calls :func:`recover_database` whenever the
directory it is opening contains a WAL.  Replay is **idempotent** by
construction, so a crash during recovery itself (or a save that raced a
truncation) never corrupts state:

* insert records whose ``series_id`` precedes the checkpointed row count
  are already folded into the saved state and are skipped;
* the remaining inserts are re-applied in LSN order — the raw row lands in
  the database's row store (appended to the memory buffer, or rewritten
  onto its page, which also heals torn page writes), and each run of
  consecutive inserts is reduced in one batch pass into entries and
  columns;
* delete records drop their entry, best-effort: deleting an id that is
  already gone is a no-op.

The reopen paths replay with no tree present and pack the index once
afterwards, so no record pays a tree insert.

The torn tail of the log (records whose CRC or length check fails) is
reported, never replayed; under ``FsyncPolicy.ALWAYS`` the tail can only
contain the single record that was mid-write when the process died, so no
acknowledged mutation is ever lost.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Union

from .. import obs
from .wal import read_wal

__all__ = ["RecoveryError", "RecoveryReport", "recover_database"]

PathLike = Union[str, pathlib.Path]


class RecoveryError(RuntimeError):
    """The WAL and the saved state disagree in a non-recoverable way."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass did."""

    replayed_inserts: int
    replayed_deletes: int
    skipped_records: int
    torn_bytes: int
    last_lsn: int

    @property
    def replayed(self) -> int:
        """Total records re-applied."""
        return self.replayed_inserts + self.replayed_deletes


def recover_database(db, wal_path: PathLike, base_count: int) -> RecoveryReport:
    """Replay the committed WAL records of ``wal_path`` into ``db``.

    Args:
        db: a freshly reopened :class:`repro.index.SeriesDatabase` (its
            ``_replay_insert_batch`` / ``_replay_delete`` hooks do the work).
        wal_path: the log file (missing/empty is a clean no-op).
        base_count: rows already folded into the saved state the database
            was reopened from — insert records below this id are skipped.
    """
    records, torn_bytes = read_wal(wal_path)
    replayed_inserts = replayed_deletes = skipped = 0
    pending_inserts: "list[tuple]" = []

    def flush_inserts() -> None:
        nonlocal replayed_inserts
        db._replay_insert_batch(pending_inserts)
        replayed_inserts += len(pending_inserts)
        pending_inserts.clear()

    with obs.span("lifecycle.recover"):
        for record in records:
            if record.op == "insert":
                if record.series_id < base_count:
                    skipped += 1
                    continue
                # runs of consecutive inserts replay as one batch reduction
                pending_inserts.append((record.series_id, record.series))
            elif record.op == "delete":
                flush_inserts()
                if db._replay_delete(record.series_id):
                    replayed_deletes += 1
                else:
                    skipped += 1
            else:  # checkpoint markers carry no state
                skipped += 1
        flush_inserts()
    if obs.is_enabled():
        obs.count("recovery.runs")
        obs.count("recovery.replayed_inserts", replayed_inserts)
        obs.count("recovery.replayed_deletes", replayed_deletes)
        obs.count("recovery.skipped_records", skipped)
    return RecoveryReport(
        replayed_inserts=replayed_inserts,
        replayed_deletes=replayed_deletes,
        skipped_records=skipped,
        torn_bytes=torn_bytes,
        last_lsn=records[-1].lsn if records else 0,
    )
