"""Snapshot-consistent serving for mutable databases.

A similarity database that accepts inserts and deletes while answering
``knn_batch`` traffic needs a stable read view: a query planned against one
entry set must not see half of a concurrent insert (a raw row without its
index entry, or a tree mid-split).  The mechanism here is deliberately
small — single-version copy-on-write rather than full MVCC:

* every database carries a monotonically increasing **generation** counter,
  bumped once per *visible* mutation;
* :meth:`MutableDatabase.snapshot` pins the current version and returns a
  :class:`Snapshot` — a lightweight read view over the pinned entry list,
  raw-data view and tree;
* while at least one snapshot is pinned, mutations are **deferred**: the
  raw row (and WAL record) land immediately, but the entry-list and tree
  updates queue as pending operations and apply in order when the last
  snapshot releases.  Readers therefore always see a generation boundary,
  never a partial mutation.

The engine pins a snapshot for the duration of each batch, so a pinned
window is short; a snapshot must not be used after :meth:`Snapshot.release`.
"""

from __future__ import annotations

import threading
from typing import List, Optional

__all__ = ["MutableDatabase", "Snapshot"]


class Snapshot:
    """A pinned, immutable read view of a :class:`MutableDatabase`.

    Exposes exactly the surface the query engine and search states consume
    (``data`` / ``entries`` / ``tree`` / ``suite`` plus the helper methods),
    with the entry list and raw-data view frozen at pin time.  Use as a
    context manager, or call :meth:`release` explicitly; the view is
    invalid after release.
    """

    __slots__ = ("_db", "generation", "entries", "data", "tree", "_released", "_engine")

    def __init__(self, db):
        self._db = db
        self.generation: int = db.generation
        self.entries: "List" = db.entries
        self.data = db.data
        self.tree = db.tree
        self._released = False
        self._engine = None  # see engine()

    # -- delegation to the owning database ------------------------------
    @property
    def suite(self):
        return self._db.suite

    @property
    def reducer(self):
        return self._db.reducer

    @property
    def index_kind(self):
        return self._db.index_kind

    @property
    def node_bounds_exact(self):
        return self._db.node_bounds_exact

    def query_context(self, query):
        """Reduce ``query`` for the distance suite (stateless; delegated)."""
        return self._db.query_context(query)

    def node_distance(self, ctx, node):
        """Index-structure distance against the pinned tree."""
        return self._db.node_distance(ctx, node)

    def stacked_entries(self):
        """The owning database's columnar representation store.

        Inserts grow it in place and deletes rebuild it, but both are
        deferred while any snapshot is pinned, so it matches the pinned
        entry list for the view's whole lifetime.
        """
        return self._db.stacked_entries()

    def cascade(self):
        """The owning database's bound cascade (suite-scoped; delegated)."""
        return self._db.cascade()

    def engine(self):
        """A :class:`repro.engine.QueryEngine` over this pinned view.

        Cached on the snapshot for its lifetime; the engine reads the
        pinned entry list/tree, so batches through it are stable even
        while the owning database mutates.
        """
        if self._engine is None:
            from ..engine import QueryEngine

            self._engine = QueryEngine(self)
        return self._engine

    # -- lifetime --------------------------------------------------------
    def release(self) -> None:
        """Unpin; pending mutations flush once the last snapshot releases."""
        if not self._released:
            self._released = True
            self._db._release_snapshot()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


class MutableDatabase:
    """Mixin: the mutable-serving contract of :class:`repro.index.SeriesDatabase`.

    The database provides ``insert`` / ``delete`` and the internal apply
    hook; this mixin owns the generation counter, the snapshot pin count
    and the pending-operation queue that defers index visibility while
    snapshots are live.
    """

    def _init_lifecycle(self) -> None:
        """Initialise mutation-tracking state (call from ``__init__``)."""
        self._generation = 0
        self._pins = 0
        self._pending: "List[tuple]" = []
        self._mutate_lock = threading.RLock()
        self._wal = None
        self._home = None

    # -- snapshot API ----------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic version counter; bumps once per visible mutation."""
        return self._generation

    @property
    def wal(self):
        """The attached :class:`repro.lifecycle.WriteAheadLog`, if any."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Route subsequent ``insert``/``delete`` calls through ``wal``."""
        self._wal = wal

    def snapshot(self) -> Snapshot:
        """Pin the current version and return a stable read view.

        ``with db.snapshot() as view: ...`` serves the view for the
        duration of the block while concurrent mutations queue.
        """
        with self._mutate_lock:
            self._pins += 1
            return Snapshot(self)

    # -- deferred-application machinery ---------------------------------
    def _release_snapshot(self) -> None:
        with self._mutate_lock:
            self._pins -= 1
            if self._pins == 0 and self._pending:
                ops, self._pending = self._pending, []
                for op, payload in ops:
                    self._apply_op(op, payload)

    def _stage(self, op: str, payload) -> None:
        """Apply a mutation now, or queue it while snapshots are pinned."""
        with self._mutate_lock:
            if self._pins:
                self._pending.append((op, payload))
            else:
                self._apply_op(op, payload)

    def _apply_op(self, op: str, payload) -> None:
        """Make one mutation visible (entry list + tree).  Lock held."""
        raise NotImplementedError

    def _flush_pending(self) -> None:
        """Force-apply queued mutations; raises while snapshots are pinned.

        Maintenance operations (checkpoint, compaction) need the physical
        state to match the logical one before persisting it.
        """
        with self._mutate_lock:
            if not self._pending:
                return
            if self._pins:
                raise RuntimeError(
                    "cannot flush pending mutations while snapshots are pinned"
                )
            ops, self._pending = self._pending, []
            for op, payload in ops:
                self._apply_op(op, payload)
