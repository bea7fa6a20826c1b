"""Round-robin sharding: N independent databases behind one engine facade.

A :class:`ShardedEngine` partitions one logical collection across ``N``
:class:`repro.index.SeriesDatabase` shards by hashing on the series id —
round-robin, ``shard = id % N`` — and answers queries by scatter-gather:
every shard runs its own :class:`repro.engine.QueryEngine` over a pinned
snapshot, and the coordinator merges the per-shard answers with the *same*
stable ``(distance, series id)`` tie-break the single engine uses.

**Why round-robin and not consistent hashing:** the placement doubles as
the id codec.  Global id ``g`` lives in shard ``g % N`` at local row
``g // N``; both directions are pure arithmetic, so nothing mutable maps
ids, the per-shard write-ahead logs recover local rows only, and the
global view falls out of the invariant.  Global ids are assigned
sequentially, so within each shard local order equals global order and
the per-shard tie-break agrees with the unsharded one by construction.

**Exactness:** the merged top-k is bit-identical to the single engine
because every query bound is a true lower bound (Dist_LB for the adaptive
methods, the aligned bounds for the equal-length ones, CHEBY's triangle
bound, SAX MINDIST): each shard's top-k is exact over its rows, and the
global top-k is contained in their union.

**Durability:** :meth:`ShardedEngine.save` writes one sub-directory per
shard (each with its own WAL under a durability policy) plus a
``sharding.json`` manifest; :meth:`ShardedEngine.open` reopens and
recovers every shard independently, then trims any shard that got ahead
of the round-robin prefix (possible only when a crash tears an unsynced
batch across shards) back to the longest consistent prefix.
"""

from __future__ import annotations

import json
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from threading import RLock
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..engine.options import BatchResult, QueryOptions
from ..engine.states import gather_rows
from ..index.knn import KNNResult, SeriesDatabase
from ..kinds import IndexKind, require_int
from ..reduction import REDUCERS

__all__ = ["ShardedEngine", "partition_database", "MANIFEST_FILENAME"]

PathLike = Union[str, pathlib.Path]

#: manifest file marking a directory as a sharded database home
MANIFEST_FILENAME = "sharding.json"

#: current manifest schema version
MANIFEST_VERSION = 1


def _shard_dir(home: pathlib.Path, shard: int) -> pathlib.Path:
    return home / f"shard-{shard:02d}"


def _needed_rows(total: int, shard: int, n_shards: int) -> int:
    """Rows shard ``shard`` holds when the global prefix has ``total`` rows."""
    if total <= shard:
        return 0
    return (total - shard + n_shards - 1) // n_shards


def partition_database(db, n_shards: int) -> "List[SeriesDatabase]":
    """Split ``db`` into ``n_shards`` round-robin shards, reusing its reductions.

    Global row ``g`` (live or tombstoned) becomes local row ``g // n_shards``
    of shard ``g % n_shards``; stored representations are carried over so
    partitioning never re-runs the reducer, and each shard packs its index
    once.  Works for both in-memory and disk-backed sources (disk rows are
    materialised into memory shards).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if db.data is None:
        raise ValueError("cannot partition a database before ingest")
    count = db.count
    by_id = {e.series_id: e for e in db.entries}
    shards: "List[SeriesDatabase]" = []
    for s in range(n_shards):
        shard = SeriesDatabase(
            REDUCERS[db.reducer.name](n_coefficients=db.reducer.n_coefficients),
            index=db.index_kind,
            max_entries=db.max_entries,
            min_entries=db.min_entries,
        )
        gids = list(range(s, count, n_shards))
        if gids:
            live = [(local, by_id[g]) for local, g in enumerate(gids) if g in by_id]
            shard.ingest(
                gather_rows(db.data, gids),
                representations=[e.representation for _, e in live],
                live_ids=[local for local, _ in live],
                bulk=True,
            )
        shards.append(shard)
    return shards


def _truncate_tail(shard: SeriesDatabase, keep: int) -> None:
    """Drop every row with local id >= ``keep`` (crash-repair only).

    Rebuilds the shard from its first ``keep`` rows, reusing the stored
    representations of the surviving live entries, and packs its index.
    """
    if keep <= 0:
        shard._rows.clear()
        shard._adopt([])
        return
    entries = [e for e in sorted(shard.entries, key=lambda e: e.series_id) if e.series_id < keep]
    shard.ingest(
        np.array(np.asarray(shard.data)[:keep], dtype=float),
        representations=[e.representation for e in entries],
        live_ids=[e.series_id for e in entries],
        bulk=True,
    )


class ShardedEngine:
    """Scatter-gather query execution over round-robin shards.

    Owns ``N`` independent :class:`repro.index.SeriesDatabase` shards and
    exposes the single-engine surface — :meth:`knn_batch`,
    :meth:`range_query`, :meth:`insert`, :meth:`delete` — in *global* id
    space.  Per batch, every shard's snapshot is pinned, searched through
    its own query engine, and the per-query answers are merged by the
    stable ``(distance, series id)`` rule; see the module docstring for
    when the merge is provably identical to the unsharded engine.

    Construct via :meth:`from_database` (partition an existing database),
    :meth:`open` (reopen a sharded home saved by :meth:`save`), or directly
    from a list of shard databases whose row counts form a valid
    round-robin prefix.
    """

    def __init__(self, shards: "Sequence[SeriesDatabase]", parallel: bool = False):
        if not shards:
            raise ValueError("at least one shard is required")
        self._shards = list(shards)
        counts = [sh.count for sh in self._shards]
        total = sum(counts)
        n = len(self._shards)
        for s, have in enumerate(counts):
            if have != _needed_rows(total, s, n):
                raise ValueError(
                    "shard row counts are not a round-robin prefix: "
                    f"shard {s} holds {have} rows, expected {_needed_rows(total, s, n)}"
                )
        self._next_id = total
        self._home: "Optional[pathlib.Path]" = None
        self._lock = RLock()
        self._pool = (
            ThreadPoolExecutor(max_workers=n, thread_name_prefix="repro-shard")
            if parallel and n > 1
            else None
        )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_database(cls, db, n_shards: int, parallel: bool = False) -> "ShardedEngine":
        """Partition ``db`` into ``n_shards`` and wrap the result."""
        return cls(partition_database(db, n_shards), parallel=parallel)

    @classmethod
    def open(cls, home: PathLike, durability=None, parallel: bool = False) -> "ShardedEngine":
        """Reopen a sharded home saved by :meth:`save`.

        Each shard recovers independently through its own WAL (see
        :func:`repro.io.open_database`).  If a crash tore an unsynced write
        batch across shards, any shard ahead of the longest consistent
        round-robin prefix is trimmed back to it (and checkpointed so the
        trim sticks) — exactly the acknowledged prefix survives.  Older
        manifests also name the adaptive query bound; that key is ignored.
        """
        from ..io.database import open_database
        from ..lifecycle.recovery import recover_database
        from ..lifecycle.wal import WAL_FILENAME, DurabilityOptions, WriteAheadLog

        home = pathlib.Path(home)
        manifest = json.loads((home / MANIFEST_FILENAME).read_text())
        n = int(manifest["n_shards"])
        shards: "List[SeriesDatabase]" = []
        for s in range(n):
            directory = _shard_dir(home, s)
            if (directory / "config.json").exists():
                shards.append(open_database(directory, durability=durability))
                continue
            # never-checkpointed shard: rebuild from the manifest + its WAL
            reducer = REDUCERS[manifest["reducer"]](
                n_coefficients=int(manifest["n_coefficients"])
            )
            raw_index = manifest.get("index")
            shard = SeriesDatabase(
                reducer,
                index=None if raw_index is None else IndexKind(raw_index),
                max_entries=int(manifest.get("max_entries", 5)),
                min_entries=int(manifest.get("min_entries", 2)),
            )
            shard._home = directory
            wal_path = directory / WAL_FILENAME
            had_wal = wal_path.exists()
            if had_wal:
                recover_database(shard, wal_path, 0)
            shard._build_index(bulk=True)
            if durability is not None or had_wal:
                directory.mkdir(parents=True, exist_ok=True)
                shard.attach_wal(
                    WriteAheadLog.open(wal_path, durability or DurabilityOptions())
                )
            shards.append(shard)
        cls._repair_prefix(home, shards)
        engine = cls(shards, parallel=parallel)
        engine._home = home
        return engine

    @staticmethod
    def _repair_prefix(home: pathlib.Path, shards: "List[SeriesDatabase]") -> None:
        """Trim shards that got ahead of the longest consistent prefix."""
        from ..lifecycle.maintenance import checkpoint

        n = len(shards)
        total = min(sh.count * n + s for s, sh in enumerate(shards))
        for s, shard in enumerate(shards):
            keep = _needed_rows(total, s, n)
            if shard.count <= keep:
                continue
            _truncate_tail(shard, keep)
            if shard.data is not None:
                checkpoint(shard, _shard_dir(home, s))
            elif shard.wal is not None:
                shard.wal.reset()

    # -- introspection ----------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards behind this engine."""
        return len(self._shards)

    @property
    def shards(self) -> "List[SeriesDatabase]":
        """The shard databases (read-only access; mutate through the engine)."""
        return list(self._shards)

    @property
    def count(self) -> int:
        """Total rows across shards, tombstones included (= next global id)."""
        return self._next_id

    @property
    def generation(self) -> "tuple":
        """Per-shard generation counters (the sharded version vector)."""
        return tuple(sh.generation for sh in self._shards)

    def __len__(self) -> int:
        """Number of live (non-tombstoned) series across all shards."""
        return sum(len(sh) for sh in self._shards)

    def shard_of(self, series_id: int) -> int:
        """The shard a global series id lives in."""
        return require_int(series_id, "series_id") % len(self._shards)

    # -- queries -----------------------------------------------------------
    def knn_batch(
        self, queries: np.ndarray, options: "Optional[QueryOptions]" = None
    ) -> BatchResult:
        """Scatter a batch to every shard and merge the per-shard top-k.

        Returns a :class:`repro.engine.BatchResult` in global id space;
        ``generation`` carries the per-shard generation tuple.  Each shard
        pins its own snapshot for the duration of the batch, so concurrent
        inserts/deletes never shift any shard mid-flight.
        """
        options = options if options is not None else QueryOptions()
        deadline = (
            None if options.deadline_s is None else time.perf_counter() + options.deadline_s
        )

        def run(engine, queries):
            opts = options
            if deadline is not None:
                remaining = max(deadline - time.perf_counter(), 1e-9)
                opts = replace(options, deadline_s=remaining)
            return engine.knn_batch(queries, opts)

        return self._scatter(queries, run, options.k)

    def range_batch(self, queries: np.ndarray, radius: float) -> BatchResult:
        """All series within ``radius`` of each query, merged across shards.

        The same scatter-gather as :meth:`knn_batch` — every shard pinned
        for the duration, hits re-keyed to global ids and ordered by the
        stable ``(distance, series id)`` rule — with nothing cut off.
        """
        return self._scatter(
            queries, lambda engine, queries: engine.range_batch(queries, radius), None
        )

    def range_query(self, query: np.ndarray, radius: float) -> KNNResult:
        """One radius query — :meth:`range_batch` with a batch of one."""
        return self.range_batch(np.asarray(query, dtype=float)[None, :], radius).results[0]

    def _scatter(self, queries: np.ndarray, run, k: "Optional[int]") -> BatchResult:
        """Pin every shard, ``run(engine, queries)`` on each pinned view's
        engine, and merge the per-shard batches (best ``k``, or all hits)."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValueError("expected a (Q, n) array of queries")
        n = len(self._shards)
        start = time.perf_counter()
        snaps = [sh.snapshot() for sh in self._shards]
        try:
            def on(snap):
                return None if snap.data is None else run(snap.engine(), queries)

            if self._pool is not None:
                batches = list(self._pool.map(on, snaps))
            else:
                batches = [on(snap) for snap in snaps]
            merge_start = time.perf_counter()
            results, timed_out = self._merge(batches, len(queries), k)
            if obs.is_enabled():
                obs.count("shard.batches")
                obs.count(
                    "shard.queries", len(queries) * sum(1 for b in batches if b is not None)
                )
                obs.gauge_set("shard.count", n)
                obs.observe(
                    "shard.merge_ms", (time.perf_counter() - merge_start) * 1000.0
                )
            return BatchResult(
                results=results,
                timed_out=sorted(timed_out),
                elapsed_s=time.perf_counter() - start,
                rounds=max((b.rounds for b in batches if b is not None), default=0),
                generation=tuple(snap.generation for snap in snaps),
            )
        finally:
            for snap in snaps:
                snap.release()

    def _merge(self, batches, n_queries: int, k: "Optional[int]"):
        """Merge per-shard batches into global-id results (stable tie-break)."""
        n = len(self._shards)
        results: "List[KNNResult]" = []
        timed_out: "set[int]" = set()
        for batch in batches:
            if batch is not None:
                timed_out.update(batch.timed_out)
        for i in range(n_queries):
            merged: "List[tuple[float, int]]" = []
            n_verified = n_total = nodes_visited = n_candidates = 0
            node_pushes = heap_pushes = 0
            for shard, batch in enumerate(batches):
                if batch is None:
                    continue
                r = batch.results[i]
                merged.extend(
                    (d, local * n + shard) for d, local in zip(r.distances, r.ids)
                )
                n_verified += r.n_verified
                n_total += r.n_total
                nodes_visited += r.nodes_visited
                n_candidates += r.n_candidates
                node_pushes += r.node_pushes
                heap_pushes += r.heap_pushes
            merged.sort()  # (distance, global id) — the single-engine tie-break
            top = merged[:k]  # k is None for a range merge: every hit
            results.append(
                KNNResult(
                    ids=[gid for _, gid in top],
                    distances=[d for d, _ in top],
                    n_verified=n_verified,
                    n_total=n_total,
                    nodes_visited=nodes_visited,
                    n_candidates=n_candidates,
                    node_pushes=node_pushes,
                    heap_pushes=heap_pushes,
                )
            )
        return results, timed_out

    # -- mutation ----------------------------------------------------------
    def insert(self, series: np.ndarray) -> int:
        """Insert one series; returns its *global* id.

        The id is allocated sequentially and routed to shard ``id % N``;
        with per-shard WALs attached the shard logs (and fsyncs per policy)
        the local record before anything changes, exactly like the
        unsharded path.
        """
        with self._lock:
            gid = self._next_id
            n = len(self._shards)
            local = self._shards[gid % n].insert(series)
            if local != gid // n:
                raise RuntimeError(
                    f"shard {gid % n} assigned local id {local}, expected {gid // n}; "
                    "the round-robin invariant is broken"
                )
            self._next_id += 1
            return gid

    def insert_batch(self, data: np.ndarray) -> "List[int]":
        """Insert many series; returns their *global* ids.

        Ids are allocated sequentially and routed round-robin exactly as a
        loop of :meth:`insert` would, but each shard receives its rows as
        one :meth:`repro.index.SeriesDatabase.insert_batch` call, so the
        reduction runs array-at-a-time per shard.  Per-shard WAL record
        order is unchanged (each shard's rows arrive in global-id order).
        """
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("insert_batch expects a (count, n) array of series")
        if matrix.shape[0] == 0:
            return []
        # the shards check too, but a row rejected by a later shard would
        # leave the earlier shards' rows in and break the round-robin prefix
        if not np.isfinite(matrix).all():
            raise ValueError("series must be finite (no NaN or infinite values)")
        with self._lock:
            n = len(self._shards)
            gids = list(range(self._next_id, self._next_id + matrix.shape[0]))
            for s in range(n):
                positions = [p for p, gid in enumerate(gids) if gid % n == s]
                if not positions:
                    continue
                locals_ = self._shards[s].insert_batch(matrix[positions])
                expected = [gids[p] // n for p in positions]
                if list(locals_) != expected:
                    raise RuntimeError(
                        f"shard {s} assigned local ids {locals_}, expected {expected}; "
                        "the round-robin invariant is broken"
                    )
            self._next_id += matrix.shape[0]
            return gids

    def delete(self, series_id: int) -> bool:
        """Tombstone one global series id in its shard."""
        series_id = require_int(series_id, "series_id")
        if series_id < 0 or series_id >= self._next_id:
            return False
        n = len(self._shards)
        return self._shards[series_id % n].delete(series_id // n)

    # -- persistence / lifecycle -------------------------------------------
    def save(self, home: PathLike) -> None:
        """Persist every shard plus the ``sharding.json`` manifest."""
        home = pathlib.Path(home)
        home.mkdir(parents=True, exist_ok=True)
        template = self._shards[0]
        manifest = {
            "version": MANIFEST_VERSION,
            "placement": "round_robin",
            "n_shards": len(self._shards),
            "reducer": template.reducer.name,
            "n_coefficients": template.reducer.n_coefficients,
            "index": template.index_kind,
            "max_entries": template.max_entries,
            "min_entries": template.min_entries,
        }
        (home / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2))
        for s, shard in enumerate(self._shards):
            directory = _shard_dir(home, s)
            if shard.data is None:
                directory.mkdir(parents=True, exist_ok=True)
                shard._home = directory
            else:
                shard.save(directory)
        self._home = home

    def checkpoint(self) -> list:
        """Checkpoint every non-empty shard (persist state, truncate WAL)."""
        from ..lifecycle.maintenance import checkpoint

        if self._home is None:
            raise RuntimeError("save the sharded engine to a home directory first")
        reports = []
        for s, shard in enumerate(self._shards):
            if shard.data is None:
                continue
            reports.append(checkpoint(shard, _shard_dir(self._home, s)))
        return reports

    def sync(self) -> None:
        """Force-fsync every shard's WAL (no-op for shards without one)."""
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.sync()

    def close(self) -> None:
        """Shut the scatter pool down and close every shard WAL."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.close()
