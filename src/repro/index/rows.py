"""Where a database's raw rows live: the row-store seam.

:class:`repro.index.SeriesDatabase` allocates ids, logs, validates,
registers, replays, snapshots and saves the same way whatever holds the raw
series.  The one thing that differs by kind sits behind a row store with
two implementations — :class:`MemoryRows` here (``kind: memory``) and
:class:`repro.storage.database.PagedRows` (``kind: disk``) — that answer:

* ``view`` — the array-like readers see as ``db.data`` (``None`` when empty);
* ``len(rows)`` — physical row count, which is also the next series id;
* ``adopt(data)`` — replace the contents wholesale (ingest, compaction);
* ``put(series_id, series)`` — append at ``len(rows)``, or rewrite in place
  where ``accepts`` allows it;
* ``accepts(series_id, rows)`` — may WAL replay write ``series_id`` into a
  store holding ``rows`` rows?
* ``clear()`` — drop every row (memory rows only: crash repair of a
  sharded home, whose shards live in memory);
* ``persist(directory)`` — write the rows into a database directory and
  return the kind-specific head of its ``config.json``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["MemoryRows"]


class MemoryRows:
    """Raw rows in an amortised-doubling ndarray buffer.

    ``view`` is always ``buffer[:count]`` and is re-sliced only when a row
    lands.  Existing snapshots keep views into the old buffer, so growing
    never moves rows out from under a pinned reader.
    """

    def __init__(self):
        self._buf: Optional[np.ndarray] = None
        self.view: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return 0 if self.view is None else self.view.shape[0]

    def adopt(self, data: np.ndarray) -> None:
        """Take ``data`` as the whole buffer (no copy until it has to grow)."""
        self._buf = self.view = data

    def clear(self) -> None:
        """Drop every row."""
        self._buf = self.view = None

    def accepts(self, series_id: int, rows: int) -> bool:
        """Memory rows only ever append: there is no torn page to heal."""
        return series_id == rows

    def put(self, series_id: int, series: np.ndarray) -> None:
        """Append one row; a stream of N appends costs O(N·n), not O(N²·n)."""
        count = len(self)
        if series_id != count:
            raise IndexError(f"row {series_id} is not the next row ({count} stored)")
        if self._buf is None or count == self._buf.shape[0]:
            grown = np.empty((max(4, 2 * count), series.shape[0]), dtype=float)
            if count:
                grown[:count] = self.view
            self._buf = grown
        self._buf[count] = series
        self.view = self._buf[: count + 1]

    def persist(self, directory) -> dict:
        """Write the rows as ``data.npz``."""
        np.savez_compressed(directory / "data.npz", data=self.view)
        return {"kind": "memory"}
