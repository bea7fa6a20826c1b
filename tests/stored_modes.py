"""Databases reopened from homes that still store an adaptive query bound.

While the adaptive query bound was a per-database choice — Dist_PAR by
default, Dist_LB or Dist_AE on request — a home's ``config.json`` stored it
as ``distance_mode`` (``"par"``, ``"lb"`` or ``"ae"``, and a shard
manifest ``"par"`` for the equal-length methods too).  The reader now
ignores that key: every database searches with Dist_LB, so one reopened
from such a home must search exactly as a freshly built one does.  Test
grids that used to range over the bound now range over the stored value
instead: ``"lb"`` is the database as built, ``"par"`` and ``"ae"`` reopen
it from a home whose config stores that value.
"""

import json
import pathlib
import tempfile

from repro.io import open_database

#: the values a home's ``config.json`` may store as ``distance_mode``
STORED_MODES = ("par", "lb", "ae")


def with_stored_mode(db, mode: str, bulk: bool = True):
    """``db`` as built for ``"lb"``; otherwise an in-memory ``db`` saved,
    its config given ``"distance_mode": mode``, and reopened.

    A reopen packs the tree in bulk; ``bulk=False`` regrows it one entry at
    a time, as ``ingest(..., bulk=False)`` grows a fresh one.
    """
    if mode == "lb":
        return db
    with tempfile.TemporaryDirectory() as tmp:
        home = pathlib.Path(tmp) / "home"
        db.save(home)
        config = json.loads((home / "config.json").read_text())
        config["distance_mode"] = mode
        (home / "config.json").write_text(json.dumps(config))
        reopened = open_database(home)
    reopened._home = None
    if not bulk and reopened.tree is not None:
        reopened._build_index(bulk=False)
    return reopened
