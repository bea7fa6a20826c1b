"""Checkpointing and compaction for durably-opened databases.

A write-ahead log bounds what a crash can lose, but it grows without bound
and replay cost grows with it; deletes leave tombstoned rows behind that
every ``ground_truth`` scan and every page of a disk store still pays for.
The two maintenance operations here close that loop:

* :func:`checkpoint` folds the current state into the saved directory
  (``data.npz``/``series.bin`` + ``representations.json`` + ``config.json``)
  and truncates the WAL — recovery afterwards starts from the new base.
* :func:`compact` additionally rewrites the raw rows to drop tombstones,
  renumbering the surviving series to contiguous ids ``0..m-1`` (ids are
  append-only *between* compactions; a compaction is the explicit point
  where they are re-packed).  The row store rewrites the survivors (a paged
  store through a temporary file that atomically replaces it), the index is
  packed once from the surviving representations (no re-reduction; the
  same tree a fresh ``ingest(..., bulk=True)`` builds), and the report
  says how many data bytes came back.

Both refuse to run while snapshots are pinned — the physical state must
match the logical one before it is persisted.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Optional, Union

from .. import obs
from .wal import WAL_FILENAME, WriteAheadLog

__all__ = ["CheckpointReport", "CompactionReport", "checkpoint", "compact"]

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class CheckpointReport:
    """Outcome of one :func:`checkpoint`."""

    directory: str
    row_count: int
    live_count: int
    wal_bytes_folded: int


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :func:`compact`."""

    directory: "Optional[str]"
    rows_before: int
    rows_live: int
    reclaimed_bytes: int
    data_bytes_before: int

    @property
    def rows_dropped(self) -> int:
        return self.rows_before - self.rows_live

    @property
    def reclaimed_fraction(self) -> float:
        """Share of pre-compaction data bytes reclaimed."""
        if not self.data_bytes_before:
            return 0.0
        return self.reclaimed_bytes / self.data_bytes_before


def _resolve_home(db, directory: "Optional[PathLike]") -> pathlib.Path:
    home = directory if directory is not None else getattr(db, "_home", None)
    if home is None:
        raise ValueError(
            "database has no known directory; pass directory= explicitly"
        )
    return pathlib.Path(home)


def _fold_wal(db, home: pathlib.Path, row_count: int) -> int:
    """Truncate the database's WAL (attached or on disk); returns bytes folded."""
    wal = getattr(db, "wal", None)
    if wal is not None:
        folded = wal.size_bytes()
        wal.append_checkpoint(row_count)
        wal.reset()
        return folded
    wal_path = home / WAL_FILENAME
    if wal_path.exists():
        with WriteAheadLog.open(wal_path) as log:
            folded = log.size_bytes()
            log.reset()
        return folded
    return 0


def checkpoint(db, directory: "Optional[PathLike]" = None) -> CheckpointReport:
    """Persist ``db``'s current state and truncate its write-ahead log.

    Works whichever row store the database has.  ``directory`` defaults to the directory
    the database was opened from.
    """
    home = _resolve_home(db, directory)
    db._flush_pending()
    with obs.span("lifecycle.checkpoint"):
        db.save(home)
        row_count = db.count
        folded = _fold_wal(db, home, row_count)
    return CheckpointReport(
        directory=str(home),
        row_count=row_count,
        live_count=len(db.entries),
        wal_bytes_folded=folded,
    )


def compact(db, directory: "Optional[PathLike]" = None) -> CompactionReport:
    """Drop tombstoned rows, renumber survivors, and persist the result.

    Returns a :class:`CompactionReport` with the reclaimed byte count.  The
    surviving series keep their relative order but get new contiguous ids;
    any attached WAL is folded (its records name pre-compaction ids).  A
    database that was never saved to a directory is compacted in place
    without persisting.
    """
    from ..engine.states import gather_rows

    db._flush_pending()
    if not db.entries:
        raise ValueError("cannot compact a database with no live series")
    pairs = sorted((e.series_id, e.representation) for e in db.entries)
    live = [sid for sid, _ in pairs]
    rows_before = db.count
    row_bytes = db.data.shape[1] * 8
    data_bytes_before = rows_before * row_bytes
    with obs.span("lifecycle.compact"):
        # re-ingesting the survivors has the row store rewrite itself
        db.ingest(
            gather_rows(db.data, live), representations=[rep for _, rep in pairs], bulk=True
        )
        reclaimed = (rows_before - len(live)) * row_bytes
        home = getattr(db, "_home", None) if directory is None else pathlib.Path(directory)
        if home is not None:
            db.save(home)
            _fold_wal(db, pathlib.Path(home), len(live))
    if obs.is_enabled():
        obs.count("compaction.runs")
        obs.count("compaction.rows_dropped", rows_before - len(live))
        obs.count("compaction.reclaimed_bytes", reclaimed)
    return CompactionReport(
        directory=str(home) if home is not None else None,
        rows_before=rows_before,
        rows_live=len(live),
        reclaimed_bytes=reclaimed,
        data_bytes_before=data_bytes_before,
    )
