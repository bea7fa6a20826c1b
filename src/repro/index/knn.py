"""GEMINI k-NN search over an indexed collection of time series.

The classic filter-and-refine loop (Faloutsos et al. 1994): navigate the
index best-first by node distance, filter leaf candidates with the method's
representation-level bound, and *verify* survivors against the raw series
with the true Euclidean distance.  Verification count over collection size
is the paper's pruning power (Eq. (14)); comparing returned neighbours with
a linear scan gives the accuracy (Eq. (15)).

Query execution itself lives in :mod:`repro.engine`; :meth:`SeriesDatabase.knn`
and :meth:`SeriesDatabase.range_query` are thin single-query wrappers over
:meth:`repro.engine.QueryEngine.knn_batch` / ``range_batch``, so sequential and
batched answers are identical by construction.  This module keeps the shared
building blocks: the :class:`_Frontier` priority queue, the result collectors
— the :class:`TopK` heap whose ``(distance, series id)`` tie-break makes the
tree search agree with :func:`linear_scan` on equal distances, and
:class:`RangeHits` for a fixed radius — and the :func:`record_search`
accounting shared by every execution path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .. import obs
from ..distance.columnar import grown
from ..distance.suite import ADAPTIVE_METHODS, QueryContext, make_suite
from ..kinds import DistanceMode, IndexKind, require_int
from ..lifecycle.snapshot import MutableDatabase
from ..reduction.base import Reducer, reduce_rows
from .bulk import bulk_load_dbch, bulk_load_rtree
from .dbch import DBCHTree
from .entries import Entry
from .mbr import feature_vector, feature_weights
from .rows import MemoryRows
from .rtree import RTree

__all__ = ["KNNResult", "RangeHits", "SeriesDatabase", "TopK", "linear_scan", "record_search"]

_INF = float("inf")

#: rows per block when a ground-truth scan streams a disk-resident view
_SCAN_BLOCK_ROWS = 512


class _Frontier:
    """Best-first priority queue mixing index nodes and leaf entries.

    Items sort by distance with a monotonically increasing tick as the
    tie-break, so equal-distance items pop in insertion order and payloads
    never need to be comparable.  Push counts per kind feed the search
    accounting (heap pushes, nodes/candidates pruned).

    Cascaded searches push entries *unrefined* (kind ``"uentry"``) keyed by
    a cheap dominated bound, then :meth:`reinsert` them with the exact key
    **and the original tick** once they reach the front.  Reinsertion
    advances neither the tick nor the push counters, so the pop sequence of
    refined items — and every counter — is identical to a search that
    pushed exact keys from the start.
    """

    __slots__ = ("_heap", "_tick", "node_pushes", "entry_pushes")

    def __init__(self):
        self._heap: list = []
        self._tick = 0
        self.node_pushes = 0
        self.entry_pushes = 0

    def push_node(self, distance: float, node) -> None:
        self.node_pushes += 1
        self._push(distance, "node", node)

    def push_entry(self, bound: float, entry: Entry, refined: bool = True) -> None:
        self.entry_pushes += 1
        self._push(bound, "entry" if refined else "uentry", entry)

    def _push(self, key: float, kind: str, payload) -> None:
        self._tick += 1
        heapq.heappush(self._heap, (key, self._tick, kind, payload))

    def pop(self) -> "tuple[float, int, str, object]":
        return heapq.heappop(self._heap)

    def reinsert(self, key: float, tick: int, kind: str, payload) -> None:
        """Re-queue a popped item at its exact key, keeping its tick."""
        heapq.heappush(self._heap, (key, tick, kind, payload))

    @property
    def pushes(self) -> int:
        return self.node_pushes + self.entry_pushes

    def __bool__(self) -> bool:
        return bool(self._heap)


class TopK:
    """Fixed-capacity best-``k`` set with a stable ``(distance, id)`` tie-break.

    The heap holds ``(-distance, -series_id)`` so eviction always removes the
    lexicographically largest ``(distance, series_id)`` pair: among equal
    distances the *larger* id goes first, which keeps exactly the ``k``
    smallest ``(distance, id)`` pairs.  That matches the order
    :func:`linear_scan` produces with its stable argsort, so the tree search
    and the ground truth agree on ties by construction.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        self.k = k
        self._heap: "list[tuple[float, int]]" = []

    def offer(self, distance: float, series_id: int) -> None:
        """Consider one verified candidate."""
        heapq.heappush(self._heap, (-distance, -series_id))
        if len(self._heap) > self.k:
            heapq.heappop(self._heap)

    @property
    def full(self) -> bool:
        """Whether ``k`` candidates have been retained."""
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """Current k-th best true distance (``inf`` until full).

        The search may stop once the next bound strictly exceeds this; on
        equality the candidate is still verified so ties resolve by id.
        """
        return -self._heap[0][0] if len(self._heap) >= self.k else _INF

    def ranked(self) -> "list[tuple[float, int]]":
        """Retained ``(distance, series_id)`` pairs, best first."""
        return sorted((-neg_d, -neg_sid) for neg_d, neg_sid in self._heap)


class RangeHits:
    """The result collector of a range walk: :class:`TopK`'s interface at a
    fixed radius.

    Always "full" with ``threshold == radius``, so the state machines stop
    (or skip) exactly where a bound strictly exceeds the radius, and every
    verified ``distance <= radius`` is kept.
    """

    __slots__ = ("threshold", "_hits")

    full = True

    def __init__(self, radius: float):
        self.threshold = radius
        self._hits: "list[tuple[float, int]]" = []

    def offer(self, distance: float, series_id: int) -> None:
        """Consider one verified candidate."""
        if distance <= self.threshold:
            self._hits.append((distance, series_id))

    def ranked(self) -> "list[tuple[float, int]]":
        """Every hit as ``(distance, series_id)``, nearest first."""
        return sorted(self._hits)


@dataclass
class KNNResult:
    """Search outcome (k-NN or range) plus the accounting the paper's figures need."""

    ids: "List[int]"
    distances: "List[float]"
    n_verified: int
    n_total: int
    nodes_visited: int = 0
    n_candidates: int = 0
    node_pushes: int = 0
    heap_pushes: int = 0

    @property
    def pruning_power(self) -> float:
        """Paper Eq. (14): fraction of raw series that had to be measured."""
        return self.n_verified / self.n_total if self.n_total else 0.0

    def accuracy_against(self, truth: "KNNResult") -> float:
        """Paper Eq. (15): |found true neighbours| / K."""
        if not truth.ids:
            return 1.0
        return len(set(self.ids) & set(truth.ids)) / len(truth.ids)


def linear_scan(data, query: np.ndarray, k: int) -> KNNResult:
    """Exact k-NN by scanning every raw series — the ground truth.

    Uses the same row-wise ``np.linalg.norm(..., axis=1)`` primitive as the
    engine's batched verification, so distances agree bit-for-bit, and a
    stable argsort so equal distances rank by ascending series id.

    ``data`` may be an in-memory ``(count, n)`` array (scanned as one
    matrix, no copy when it is already a float ndarray) or a disk-resident
    row view exposing ``gather``: that case streams through the view in
    blocks of :data:`_SCAN_BLOCK_ROWS` rows, charging the full collection
    as physical I/O without ever materialising it whole.  Row distances are
    independent, so blocking cannot change any reported value.
    """
    query = np.asarray(query, dtype=float)
    gather = getattr(data, "gather", None)
    if isinstance(data, np.ndarray) or gather is None:
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != query.shape[0]:
            raise ValueError("linear_scan expects (count, n) data and a length-n query")
        distances = np.linalg.norm(data - query[None, :], axis=1)
    else:
        count, length = data.shape
        if length != query.shape[0]:
            raise ValueError("linear_scan expects (count, n) data and a length-n query")
        blocks = []
        for start in range(0, count, _SCAN_BLOCK_ROWS):
            rows = gather(range(start, min(start + _SCAN_BLOCK_ROWS, count)))
            blocks.append(np.linalg.norm(rows - query[None, :], axis=1))
        distances = np.concatenate(blocks) if blocks else np.empty(0, dtype=float)
    order = np.argsort(distances, kind="stable")[:k]
    return KNNResult(
        ids=[int(i) for i in order],
        distances=[float(distances[i]) for i in order],
        n_verified=len(distances),
        n_total=len(distances),
    )


def record_search(result: KNNResult, mode: str) -> None:
    """Flush one query's accounting into the metrics registry.

    ``result.n_candidates`` is how many entries met the representation-bound
    stage; those never verified were pruned by the active bound, so the
    per-bound pruning counters plus ``knn.entries_refined`` reconstruct the
    paper's pruning power from a report alone.
    """
    if not obs.is_enabled():
        return
    obs.count("knn.queries")
    obs.count("knn.nodes_visited", result.nodes_visited)
    obs.count("knn.nodes_pruned", max(result.node_pushes - result.nodes_visited, 0))
    obs.count("knn.entries_refined", result.n_verified)
    obs.count("knn.heap_pushes", result.heap_pushes)
    obs.count("dist.euclidean.exact", result.n_verified)
    obs.count(obs.PRUNED_METRICS[mode], max(result.n_candidates - result.n_verified, 0))
    obs.observe("knn.verified_per_query", result.n_verified)


class SeriesDatabase(MutableDatabase):
    """A collection of raw series, their representations, and an index.

    Args:
        reducer: the dimensionality reduction method for this database.
        index: an :class:`repro.IndexKind` — ``DBCH`` (the paper's
            structure), ``RTREE`` (baseline) or ``NONE``/``None`` (filter
            every representation linearly, no tree), or the enum's value.
        distance_mode: accepted for compatibility only: Dist_LB is the one
            adaptive query bound (see :func:`repro.distance.make_suite`),
            so anything but :attr:`repro.DistanceMode.LB` or ``"lb"``
            raises ``ValueError``, and nothing stores the value.
        max_entries / min_entries: node fill factors (paper uses 5 / 2).

    The database is mutable and snapshot-consistent: ``insert``/``delete``
    may interleave with serving, ``snapshot()`` (also a context manager)
    pins a stable read view (see :class:`repro.lifecycle.MutableDatabase`),
    and attaching a :class:`repro.lifecycle.WriteAheadLog` makes mutations
    durable.

    This is the one database class.  Where the raw rows live is the only
    thing that differs by kind, and it sits behind a row store (see
    :mod:`repro.index.rows`): an in-memory buffer here, pages on disk for
    :class:`repro.storage.DiskBackedDatabase`.
    """

    def __init__(
        self,
        reducer: Reducer,
        index: "Union[IndexKind, str, None]" = IndexKind.DBCH,
        distance_mode: "Union[DistanceMode, str]" = DistanceMode.LB,
        max_entries: int = 5,
        min_entries: int = 2,
    ):
        self.reducer = reducer
        # ``None`` and ``IndexKind.NONE`` both mean "no tree"; a value that
        # is no IndexKind raises ValueError here, not mid-query
        kind = None if index is None else IndexKind(index)
        self.index_kind: "Optional[IndexKind]" = None if kind is IndexKind.NONE else kind
        DistanceMode(distance_mode)  # the one member: anything else raises
        self.suite = make_suite(reducer)
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._rows = MemoryRows()
        self.entries: "List[Entry]" = []
        self.tree = None
        self._weights: Optional[np.ndarray] = None
        #: the columnar representation store ``[sids buffer, stacked layout]``
        #: behind :meth:`stacked_entries`: built at ``_adopt``, appended to
        #: by inserts, dropped (and rebuilt on next use) by deletes.
        self._rep_cache = None
        self._engine = None
        self._live_ids: "set[int]" = set()
        #: lazily-built BoundCascade (suite/reducer are immutable, so it
        #: lives for the database's lifetime; its per-collection cache keys
        #: on the generation counter and self-invalidates on mutation).
        self._cascade = None
        self._init_lifecycle()

    @property
    def data(self):
        """The raw rows as readers see them — an ``(count, n)`` array or a
        paged row view — or ``None`` before the first row lands."""
        return self._rows.view

    @property
    def count(self) -> int:
        """Rows ever stored, tombstones included: the next series id."""
        return len(self._rows)

    def __len__(self) -> int:
        """Number of live (non-tombstoned) series."""
        return len(self._live_ids)

    # ------------------------------------------------------------------
    def ingest(
        self,
        data: np.ndarray,
        representations: "Optional[list]" = None,
        bulk: bool = False,
        live_ids: "Optional[List[int]]" = None,
    ) -> None:
        """Reduce and index every row of ``data`` (shape ``(count, n)``).

        ``representations`` may carry precomputed transforms of the rows so
        several index structures can be built from one reduction pass.
        ``bulk=True`` packs the tree bottom-up (STR for the R-tree,
        distance-ordered packing for the DBCH-tree) instead of inserting
        incrementally.  ``live_ids`` restricts indexing to those row ids —
        partitioning and sharded crash repair use it to rebuild a database
        whose other rows are tombstoned.
        """
        with obs.span("db.ingest"):
            self._load(data, representations, live_ids)
            self._build_index(bulk)

    def _load(
        self,
        data: np.ndarray,
        representations: "Optional[list]" = None,
        live_ids: "Optional[List[int]]" = None,
    ) -> None:
        """:meth:`ingest` without the index: validate, reduce the rows that
        carry no representation, adopt the rows and their entries.  A
        reopen loads, replays its WAL, then builds the index once."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("ingest expects a (count, n) array of series")
        if live_ids is None:
            ids = list(range(len(data)))
        else:
            ids = [int(i) for i in live_ids]
            if any(b <= a for a, b in zip(ids, ids[1:])):
                raise ValueError("live_ids must be strictly increasing")
            if ids and (ids[0] < 0 or ids[-1] >= len(data)):
                raise ValueError("live_ids out of range for the data rows")
        if representations is not None and len(representations) != len(ids):
            raise ValueError(
                "one representation per data row is required"
                if live_ids is None
                else "one representation per live series is required"
            )
        if representations is None:
            representations = reduce_rows(
                self.reducer, data if live_ids is None else data[np.array(ids, dtype=int)]
            )
        self._rows.adopt(data)
        self._adopt(list(map(self._entry, ids, representations)))

    def _entry(self, series_id: int, representation) -> Entry:
        budget = getattr(self.reducer, "n_segments", None)
        return Entry(series_id, representation, feature_vector(representation, budget))

    def _adopt(self, entries: "List[Entry]") -> None:
        """Take ``entries`` (ascending ids) as the live set over the rows
        already in the row store: entry list, live ids, columnar store and
        generation.  The tree is dropped; :meth:`_build_index` builds the
        next one, so a reopen can replay its WAL into entries alone first.
        """
        self.entries = entries
        self._live_ids = {e.series_id for e in entries}
        self._rep_cache = None
        self.tree = None
        with self._mutate_lock:
            self._pending = []
            self._generation += 1
        self.stacked_entries()

    def _build_index(self, bulk: bool) -> None:
        """Build the configured tree over the live entries, in id order.

        ``bulk=True`` packs it bottom-up (see :mod:`repro.index.bulk`):
        every rebuild of an entry set that is already known — a reopen
        after WAL replay, compaction, partitioning, crash repair — so the
        result is exactly the tree ``ingest(..., bulk=True)`` builds.
        ``bulk=False`` grows it by insertion, as the paper does.  With no
        live entry there is no tree and searches fall back to a scan.
        """
        if not self.entries:
            return
        if self.index_kind == IndexKind.RTREE:
            budget = getattr(self.reducer, "n_segments", None)
            self._weights = feature_weights(self.entries[0].representation, budget)
            if bulk:
                self.tree = bulk_load_rtree(self.entries, self.max_entries, self.min_entries)
            else:
                self.tree = RTree(self.max_entries, self.min_entries)
                for entry in self.entries:
                    self.tree.insert(entry)
        elif self.index_kind == IndexKind.DBCH:
            from ..distance.cascade import make_pairwise_accel

            accel = make_pairwise_accel(self.suite, self.reducer)
            if bulk:
                self.tree = bulk_load_dbch(
                    self.entries,
                    self.suite.pairwise,
                    self.max_entries,
                    self.min_entries,
                    accel=accel,
                )
            else:
                self.tree = DBCHTree(
                    self.suite.pairwise, self.max_entries, self.min_entries, accel=accel
                )
                for entry in self.entries:
                    self.tree.insert(entry)
        if self.tree is not None and obs.is_enabled():
            from .stats import leaf_fill

            gauge = (
                "dbch.leaf_fill" if self.index_kind == IndexKind.DBCH else "rtree.leaf_fill"
            )
            obs.gauge_set(gauge, leaf_fill(self.tree))

    # ------------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """Filter-and-refine k-NN through the configured index.

        A thin wrapper over the batched engine with a batch of one, so a
        single query and a batch member take the same code path and return
        byte-identical ids and distances.
        """
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        if k < 1:
            raise ValueError("k must be >= 1")
        from ..engine import QueryOptions

        query = np.asarray(query, dtype=float)
        with obs.span("knn.search"):
            batch = self.engine().knn_batch(query[None, :], QueryOptions(k=k))
        return batch.results[0]

    def knn_batch(self, queries: np.ndarray, options=None):
        """Answer many queries at once — see :meth:`repro.engine.QueryEngine.knn_batch`."""
        return self.engine().knn_batch(queries, options)

    def range_query(self, query: np.ndarray, radius: float) -> KNNResult:
        """All series within Euclidean ``radius`` of ``query`` (filter-and-refine).

        A thin wrapper over :meth:`range_batch` with a batch of one — the
        same state-machine walk as :meth:`knn` with the radius where k-NN
        has the k-th best distance, so subtrees and candidates whose bound
        exceeds ``radius`` are never expanded or verified and the accounting
        (nodes visited, heap pushes, candidates) feeds the same pruning
        statistics.  With a guaranteed lower bound (Dist_LB for the adaptive
        methods, or any equal-length method) the result is exact.
        """
        query = np.asarray(query, dtype=float)
        return self.range_batch(query[None, :], radius).results[0]

    def range_batch(self, queries: np.ndarray, radius: float):
        """Radius queries at one shared ``radius`` — see
        :meth:`repro.engine.QueryEngine.range_batch`."""
        return self.engine().range_batch(queries, radius)

    def engine(self):
        """The database's lazily-built :class:`repro.engine.QueryEngine`."""
        if self._engine is None:
            from ..engine import QueryEngine

            self._engine = QueryEngine(self)
        return self._engine

    def cascade(self):
        """The database's :class:`repro.distance.BoundCascade` (lazily built).

        Shared across queries; per-collection norm caches inside it key on
        the generation counter, so mutation invalidates them automatically.
        """
        if self._cascade is None:
            from ..distance.cascade import BoundCascade

            self._cascade = BoundCascade(self.suite, self.reducer)
        return self._cascade

    def columns(self):
        """The raw rows as one ``(count, n)`` float64 array without a copy
        (``None`` before the first row lands)."""
        return self.data

    def save(self, directory) -> None:
        """Persist this fitted database as a directory (see :mod:`repro.io`)."""
        from ..io.database import write_database

        write_database(self, directory)

    def stacked_entries(self):
        """``(series_ids, stacked)`` for the suite's vectorised bound, or ``None``.

        The database's one representation cache: ``stacked`` is the suite's
        columnar layout of every entry's representation, row ``i`` belonging
        to ``series_ids[i]`` (ascending, in entry order).  It is built when
        the entry set is installed, grown in place by each insert and
        rebuilt here after a delete; snapshots and shards all read this one
        store.  ``None`` when the method has no stacked layout
        (CHEBY, SAX), there are no entries, or the
        stored layouts cannot be stacked.
        """
        if self.suite.stack is None or not self.entries:
            return None
        cache = self._rep_cache
        if cache is None:
            try:
                stacked = self.suite.stack([e.representation for e in self.entries])
            except ValueError:
                return None
            sids = np.array([e.series_id for e in self.entries], dtype=np.int64)
            self._rep_cache = cache = [sids, stacked]
        sids, stacked = cache
        return sids[: len(stacked)], stacked

    def ground_truth(self, query: np.ndarray, k: int) -> KNNResult:
        """Exact k-NN by linear scan over the raw rows (indexed by id).

        Paged rows stream through in blocks — the whole collection is
        charged as physical I/O but never materialised as one matrix.
        Tombstoned rows are still read (they share pages with live ones)
        but never returned: with no deletes the scan runs at exactly ``k``
        (fast path); under churn the over-fetch is capped at the tombstone
        count, so the scan never requests more than
        ``min(k + tombstones, rows)`` neighbours.
        """
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        tombstones = self.count - len(self._live_ids)
        with obs.span("knn.ground_truth"):
            if tombstones == 0:
                return linear_scan(self.data, query, k)
            overfetch = min(k + tombstones, self.count)
            result = linear_scan(self.data, query, overfetch)
        kept = [
            (i, d) for i, d in zip(result.ids, result.distances) if i in self._live_ids
        ][:k]
        return KNNResult(
            ids=[i for i, _ in kept],
            distances=[d for _, d in kept],
            n_verified=len(self._live_ids),
            n_total=len(self._live_ids),
        )

    # ------------------------------------------------------------------
    def insert(self, series: np.ndarray) -> int:
        """Add one series to the database and its index; returns its id.

        Ids are append-only: a new series always gets the next row id even
        after deletions, so existing ids stay stable (until an explicit
        :func:`repro.lifecycle.compact` re-packs them).  With a WAL attached
        the record is logged (and fsynced per policy) before any state
        changes; then the raw row lands in the row store, then the index.
        A series of the wrong length or with a NaN or infinite value raises
        ``ValueError`` before anything is logged.
        """
        series = np.asarray(series, dtype=float)
        if series.ndim != 1:
            raise ValueError("insert expects a single series (1-D array)")
        return self.insert_batch(series[None, :])[0]

    def insert_batch(self, data: np.ndarray) -> "List[int]":
        """Append many series in one batched reduction; returns their ids.

        Equivalent to calling :meth:`insert` per row — same ids, same WAL
        record order, and bit-identical entries (the ``transform_batch``
        contract) — but the reduction runs array-at-a-time.  WAL records for
        the whole batch are logged before any state changes; a crash
        mid-batch therefore replays cleanly (replay re-applies the logged
        prefix row by row).
        """
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("insert_batch expects a (count, n) array of series")
        if matrix.shape[0] == 0:
            return []
        if self.data is not None and matrix.shape[1] != self.data.shape[1]:
            raise ValueError(
                f"series length {matrix.shape[1]} does not match stored {self.data.shape[1]}"
            )
        # before the WAL: a logged row that cannot be reduced would fail
        # every replay and the home would never open again
        if not np.isfinite(matrix).all():
            raise ValueError("series must be finite (no NaN or infinite values)")
        ids = list(range(self.count, self.count + matrix.shape[0]))
        if self._wal is not None:
            for series_id, row in zip(ids, matrix):
                self._wal.append_insert(series_id, row)
        if self.data is None:
            self.ingest(matrix)
        else:
            self._land(ids, matrix)
        return ids

    def _land(self, series_ids: "List[int]", rows: np.ndarray) -> None:
        """Put already-logged rows into the row store and stage their entries.

        One row keeps the scalar ``transform`` (what a streaming insert
        pays); a longer run reduces in one batch pass — bit-identical
        entries either way.
        """
        for series_id, row in zip(series_ids, rows):
            self._rows.put(series_id, row)
        if len(rows) == 1:
            representations = [self.reducer.transform(rows[0])]
        else:
            representations = reduce_rows(self.reducer, rows)
        for series_id, representation in zip(series_ids, representations):
            self._live_ids.add(series_id)
            obs.count("db.inserts")
            self._stage("insert", self._entry(series_id, representation))

    def delete(self, series_id: int) -> bool:
        """Remove one series from the database and its index.

        The raw row stays behind as a tombstone (ids are stable); the entry
        leaves the candidate set and the tree, so searches never return it
        again.  :func:`repro.lifecycle.compact` reclaims the row bytes.
        """
        series_id = require_int(series_id, "series_id")
        if series_id not in self._live_ids:
            return False
        if self._wal is not None:
            self._wal.append_delete(series_id)
        return self._replay_delete(series_id)

    # -- lifecycle hooks ------------------------------------------------
    def _apply_op(self, op: str, payload) -> None:
        """Make one staged mutation visible in the entry list (and tree, if built)."""
        if op == "insert":
            self.entries.append(payload)
            if self.tree is not None:
                self.tree.insert(payload)
            cache = self._rep_cache
            if cache is not None:
                filled = len(cache[1])
                cache[1].extend([payload.representation])
                cache[0] = grown(cache[0], filled, filled + 1)
                cache[0][filled] = payload.series_id
        else:
            self.entries = [e for e in self.entries if e.series_id != payload]
            if self.tree is not None:
                self.tree.delete(payload)
            self._rep_cache = None
        self._generation += 1

    def _replay_insert_batch(self, records: "List[tuple]") -> None:
        """Recovery hook: re-apply a run of consecutive WAL inserts unlogged.

        The whole run is validated against the row store before anything
        changes (a violation is fatal to recovery): memory rows must
        continue the id sequence exactly, paged rows may also be rewritten
        in place, which heals torn page writes.  Then every row lands and
        the run reduces in one batch pass.
        """
        from ..lifecycle.recovery import RecoveryError

        pending = [(int(sid), np.asarray(series, dtype=float)) for sid, series in records]
        rows = len(self._rows)
        for series_id, _ in pending:
            if not self._rows.accepts(series_id, rows):
                raise RecoveryError(
                    f"WAL insert for id {series_id} but the row store holds {rows} rows"
                )
            rows = max(rows, series_id + 1)
        if pending:
            self._land([sid for sid, _ in pending], np.vstack([s for _, s in pending]))

    def _replay_delete(self, series_id: int) -> bool:
        """Recovery hook: apply one delete without logging it (idempotent)."""
        if series_id not in self._live_ids:
            return False
        self._live_ids.discard(series_id)
        obs.count("db.deletes")
        self._stage("delete", series_id)
        return True

    # ------------------------------------------------------------------
    def query_context(self, query: np.ndarray) -> QueryContext:
        """Package ``query`` for the distance suite; its reduction is computed
        on first access (see :class:`repro.distance.QueryContext`)."""
        return QueryContext(series=query, reducer=self.reducer)

    def node_distance(self, ctx: QueryContext, node) -> float:
        """Index-structure distance from the query to a tree node."""
        if self.index_kind == IndexKind.RTREE:
            q_feature = feature_vector(
                ctx.representation, getattr(self.reducer, "n_segments", None)
            )
            return self.tree.node_distance(q_feature, self._weights, node)
        return self.tree.node_distance(ctx.representation, node)

    @property
    def node_bounds_exact(self) -> bool:
        """Whether :meth:`node_distance` may *prune* subtrees, not just order them.

        The R-tree's weighted feature MINDIST assumes every series shares the
        query's segment layout; adaptive methods break that, so their node
        distances are navigation hints only — pruning on them falsely
        dismisses true neighbours (entry-level bounds stay exact and carry
        all pruning instead).  See :mod:`repro.index.mbr`.
        """
        return not (
            self.index_kind == IndexKind.RTREE and self.suite.method in ADAPTIVE_METHODS
        )
