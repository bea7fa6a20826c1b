"""Persistence for whole similarity databases.

One documented surface: ``database.save(path)`` persists a fitted
:class:`repro.index.SeriesDatabase` as a directory, and :func:`open_database`
reopens it — the directory's ``config.json`` records which row store
(``kind``) it holds.  A ``memory`` database stores its raw data as
``data.npz``; a ``disk`` one (:class:`repro.storage.DiskBackedDatabase`)
keeps its paged store file next to the config instead.  Both store the
representations as ``representations.json``, so loading never re-reduces a
saved row.  The tree is not persisted: a reopen adopts the saved entries,
replays the write-ahead log into them, and then packs the index once over
the live entries (:mod:`repro.index.bulk`) — the same tree a fresh
``ingest(..., bulk=True)`` of those rows builds.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from ..index.knn import SeriesDatabase
from ..kinds import IndexKind
from ..reduction import REDUCERS
from ..storage.database import STORE_FILENAME, DiskBackedDatabase
from .serialization import from_jsonable, to_jsonable

__all__ = ["open_database"]

PathLike = Union[str, pathlib.Path]


def write_database(database: SeriesDatabase, directory: PathLike) -> None:
    """Persist a fitted database: raw rows + representations + config.

    The method form ``database.save(directory)`` is the public entry point.
    The row store writes its rows (``data.npz``, or a copy of the page
    file); the rest is the same for both kinds.  Entries are sorted by id
    and only *live* series are saved; the config records the total row
    count (tombstones included) and, when the two disagree, the surviving
    ids — so a save after deletes reopens with the same logical contents.
    """
    if database.data is None:
        raise ValueError("cannot save a database before ingest")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = database._rows.persist(directory)
    entries = sorted(database.entries, key=lambda e: e.series_id)
    payload = {"representations": [to_jsonable(e.representation) for e in entries]}
    (directory / "representations.json").write_text(json.dumps(payload))
    row_count = database.count
    config.update(
        {
            "reducer": database.reducer.name,
            "n_coefficients": database.reducer.n_coefficients,
            "index": database.index_kind,
            "max_entries": database.max_entries,
            "min_entries": database.min_entries,
            "row_count": row_count,
        }
    )
    if len(entries) != row_count:
        config["live_ids"] = [e.series_id for e in entries]
    (directory / "config.json").write_text(json.dumps(config, indent=2))
    database._home = directory


def open_database(directory: PathLike, durability=None):
    """Reopen a database directory saved by ``database.save(directory)``.

    Returns a :class:`repro.index.SeriesDatabase` or a
    :class:`repro.storage.DiskBackedDatabase` according to the directory's
    recorded ``kind`` (directories written before the kind field default to
    the in-memory flavour).  Older configs also name the adaptive query
    bound they were built with; that key is ignored, and every home
    reopens with Dist_LB.

    If the directory contains a write-ahead log, its committed records past
    the last checkpoint are replayed before the database is returned —
    inserted rows land in the row store and are reduced in batch passes,
    deletes drop their entries — so a crash mid-ingest reopens to exactly
    the acknowledged state.  Replay runs with no tree present; the index is
    packed once afterwards over the live entries in id order.  Passing a
    :class:`repro.lifecycle.DurabilityOptions` (or
    ``DurabilityOptions()`` by leaving a WAL in place) keeps the database
    durable: subsequent ``insert``/``delete`` calls append to the log.
    """
    directory = pathlib.Path(directory)
    config = json.loads((directory / "config.json").read_text())
    reducer = REDUCERS[config["reducer"]](n_coefficients=config["n_coefficients"])
    raw_index = config.get("index")
    index = None if raw_index is None else IndexKind(raw_index)
    payload = json.loads((directory / "representations.json").read_text())
    representations = [from_jsonable(item) for item in payload["representations"]]
    live_ids = config.get("live_ids")
    row_count = config.get("row_count")
    if config.get("kind", "memory") == "disk":
        database = DiskBackedDatabase(
            reducer,
            directory / STORE_FILENAME,
            index=index,
            page_size=config["page_size"],
            cache_pages=config["cache_pages"],
        )
        database.reopen(representations, live_ids=live_ids)
        base_count = row_count if row_count is not None else len(representations)
    else:
        database = SeriesDatabase(
            reducer,
            index=index,
            max_entries=config["max_entries"],
            min_entries=config["min_entries"],
        )
        with np.load(directory / "data.npz", allow_pickle=False) as archive:
            data = archive["data"]
        database._load(data, representations=representations, live_ids=live_ids)
        base_count = len(data)
    database._home = directory
    from ..lifecycle.wal import WAL_FILENAME, DurabilityOptions, WriteAheadLog
    wal_path = directory / WAL_FILENAME
    had_wal = wal_path.exists()
    if had_wal:
        from ..lifecycle.recovery import recover_database

        recover_database(database, wal_path, base_count)
    database._build_index(bulk=True)
    wants_wal = durability.wal if durability is not None else had_wal
    if wants_wal:
        database.attach_wal(
            WriteAheadLog.open(wal_path, durability or DurabilityOptions())
        )
    return database
