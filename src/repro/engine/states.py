"""Per-query search state machines, stepped in vectorised rounds.

Each query owns one state object — :class:`ScanState` for the tree-less
GEMINI filtered scan, :class:`TreeState` for the best-first DBCH/R-tree
walk.  A state alternates between :meth:`~_QueryState.advance` (emit the
series ids it needs verified next, or finish) and :meth:`~_QueryState.feed`
(absorb their exact distances).  The engine drives many states in lockstep
and resolves all pending (query, candidate) pairs of a round in one NumPy
call; because every decision a state makes depends only on its own
accumulated state, a batch member answers exactly as the same query would
alone.

The verification budget is ``k`` on the first advance (the first ``k``
survivors are always verified — the result heap is not full yet, so no
stop rule can fire between them).  Tree walks and the lazy cascade heap
then take ``lookahead`` (default 1) per round, the classic one-at-a-time
refinement loop; a sorted scan verifies blocks and replays that loop's
stop rule over each (:class:`ScanState`), with the same answers and counts.

A range query is the same walk with a different result collector
(:class:`repro.index.knn.RangeHits`: always full, threshold fixed at the
radius) and :data:`WHOLE_RUN` as ``k``: its threshold never moves, so no
verified distance can change a later decision and the first advance takes
every admissible candidate.
"""

from __future__ import annotations

import heapq
import sys
from typing import List

import numpy as np

from ..index.knn import KNNResult, TopK, _Frontier
from ..kinds import IndexKind

__all__ = ["BLOCK_ROWS", "ScanState", "TreeState", "WHOLE_RUN", "make_state", "gather_rows"]

#: the ``k`` of a range walk: a first-advance budget no run can exhaust
WHOLE_RUN = sys.maxsize

#: scan block cap: at 256 points a block's gather and difference arrays stay
#: under glibc's 128 KB mmap threshold (larger blocks grew the heap ~2 MB)
BLOCK_ROWS = 32


def gather_rows(data, series_ids: "List[int]") -> np.ndarray:
    """Stack the raw rows for ``series_ids`` into a ``(len, n)`` matrix.

    In-memory arrays fancy-index in one shot.  Disk-backed views exposing
    ``gather`` resolve the whole batch in one call (a slice of the page
    file's memmap, or a page-sequential batched read) with the physical I/O
    still charged per row; anything supporting only integer ``data[i]``
    falls back to row-by-row reads.
    """
    if isinstance(data, np.ndarray):
        return data[np.asarray(series_ids, dtype=np.intp)]
    gather = getattr(data, "gather", None)
    if gather is not None:
        return gather(series_ids)
    return np.stack([np.asarray(data[int(sid)], dtype=float) for sid in series_ids])


def _batch_bounds(db, ctx):
    """``(series_ids, bounds)``: the query's bound against every entry from
    the database's columnar store in one pass, or ``None`` without one."""
    stacked = db.stacked_entries()
    if stacked is None:
        return None
    sids, columns = stacked
    return sids, db.suite.query_bound_batch(ctx, columns)


def _query_cascade(db, ctx):
    """The database's per-query cascade, or ``None`` when unavailable."""
    cascade_of = getattr(db, "cascade", None)
    if not callable(cascade_of):
        return None
    return cascade_of().for_query(ctx)


class _QueryState:
    """Common machinery: the result collector, budget schedule and accounting."""

    def __init__(self, db, query: np.ndarray, k: int, lookahead: int, collector=None):
        self.db = db
        self.query = query
        self.ctx = db.query_context(query)
        self.topk = TopK(k) if collector is None else collector
        self.k = k
        self.lookahead = lookahead
        self.verified = 0
        self.done = False
        self._advances = 0

    def advance(self) -> "List[int]":
        """Series ids to verify this round (may set :attr:`done`)."""
        if self.done:
            return []
        budget = self.k if self._advances == 0 else self.lookahead
        self._advances += 1
        return self._collect(budget)

    def feed(self, series_ids: "List[int]", distances: np.ndarray) -> None:
        """Absorb the exact distances for the ids the last advance emitted."""
        for sid, dist in zip(series_ids, distances):
            self.topk.offer(float(dist), int(sid))
        self.verified += len(series_ids)

    def _collect(self, budget: int) -> "List[int]":
        raise NotImplementedError

    def finalize(self) -> KNNResult:
        """The query's result from whatever has been verified so far."""
        raise NotImplementedError

    def _ranked(self) -> "tuple[List[int], List[float]]":
        ranked = self.topk.ranked()
        return [sid for _, sid in ranked], [d for d, _ in ranked]


class ScanState(_QueryState):
    """GEMINI without a tree: bound every entry, verify in bound order.

    Bounds come from the suite's batch bound over the database's columnar
    store when there is one (every segment method: a few NumPy passes over
    all entries) and otherwise from the scalar ``query_bound`` loop;
    candidates are ordered by ``(bound, series id)`` and consumed until the
    next bound strictly exceeds the k-th best true distance, in blocks:
    ``k`` first, then the next ``min(max(k, verified), BLOCK_ROWS)`` cut to
    bounds within the current threshold (which only falls).  :meth:`feed`
    replays the stop rule over a block in order — the check one-row rounds
    make between rounds — and at the first bound above the threshold the
    query is done and the rest is discarded, unoffered and uncounted.

    Without a store (CHEBY), or when the engine asks
    for scalar bounds (``use_batch_bounds=False``: the sequential baseline,
    and for now multi-query adaptive scans in ``ExecutionMode.AUTO``), the
    scalar loop is the dominant query cost, so that case runs
    the :mod:`bound cascade <repro.distance.cascade>` lazily instead: a heap
    of ``(cheap key, series id)`` pairs whose front is refined to the exact
    bound on demand.  Dominated cheap keys make both the stop rule and the
    ``(bound, id)`` emission order provably identical to the eager loop, so
    candidates, verifications and results do not change — only how many
    exact ``query_bound`` evaluations were needed to produce them.
    """

    def __init__(
        self,
        db,
        query,
        k: int,
        lookahead: int,
        use_batch_bounds: bool,
        cascade: bool = True,
        collector=None,
    ):
        super().__init__(db, query, k, lookahead, collector)
        self._lazy = None
        self._qc = None
        batch = _batch_bounds(db, self.ctx) if use_batch_bounds else None
        if batch is None and cascade:
            qc = _query_cascade(db, self.ctx)
            if qc is not None:
                collection = qc.cascade.collection(db)
                keys = qc.cheap_keys(collection)
                heap = [
                    (key, sid, False, entry.representation)
                    for key, sid, entry in zip(
                        keys.tolist(), collection.sids.tolist(), db.entries
                    )
                ]
                heapq.heapify(heap)
                self._lazy = heap
                self._qc = qc
                self.n_candidates = len(heap)
                return
        if batch is not None:
            sids, bounds = batch
        else:
            sids = np.array([e.series_id for e in db.entries], dtype=np.int64)
            bounds = np.array(
                [db.suite.query_bound(self.ctx, e.representation) for e in db.entries],
                dtype=float,
            )
        if len(sids):
            order = np.lexsort((sids, bounds))
            sids, bounds = sids[order], bounds[order]
        self._sids = sids
        self._bounds = bounds
        self._pos = 0
        self.n_candidates = len(sids)

    def _collect(self, budget: int) -> "List[int]":
        if self._lazy is not None:
            return self._collect_lazy(budget)
        if self._advances > 1:
            budget = min(max(self.k, self.verified), BLOCK_ROWS)
        start = self._pos
        cut = int(np.searchsorted(self._bounds, self.topk.threshold, "right"))
        self._pos = max(start, min(start + budget, cut))
        self.done = self._pos >= cut
        self._block_bounds = self._bounds[start : self._pos].tolist()
        return self._sids[start : self._pos].tolist()

    def feed(self, series_ids: "List[int]", distances: np.ndarray) -> None:
        if self._lazy is not None:
            return super().feed(series_ids, distances)
        topk = self.topk
        threshold = topk.threshold  # ``inf`` until full: nothing stops before
        for sid, dist, bound in zip(series_ids, distances.tolist(), self._block_bounds):
            if bound > threshold:
                self.done = True
                return
            topk.offer(dist, sid)
            self.verified += 1
            threshold = topk.threshold

    def _collect_lazy(self, budget: int) -> "List[int]":
        pending: "List[int]" = []
        heap, qc = self._lazy, self._qc
        while len(pending) < budget and heap:
            key, sid, refined, rep = heap[0]
            if self.topk.full and key > self.topk.threshold:
                # Cheap keys are dominated: the heap minimum already above
                # the threshold means every exact bound still queued is too
                # — exactly when the eager loop's next bound would stop it.
                self.done = True
                return pending
            if refined:
                heapq.heappop(heap)
                pending.append(sid)
            else:
                heapq.heapreplace(heap, (qc.refine(rep), sid, True, rep))
        if not heap:
            self.done = True
        return pending

    def finalize(self) -> KNNResult:
        if self._qc is not None:
            self._qc.flush()
        ids, distances = self._ranked()
        return KNNResult(
            ids=ids,
            distances=distances,
            n_verified=self.verified,
            n_total=len(self.db.entries),
            nodes_visited=0,
            n_candidates=self.n_candidates,
            node_pushes=0,
            heap_pushes=0,
        )


class TreeState(_QueryState):
    """Best-first multi-step search (Hjaltason & Samet / Seidl & Kriegel).

    The priority queue mixes *nodes* (keyed by index-structure distance)
    and *entries* (keyed by the method's representation bound); an entry
    reaching the queue front is emitted for verification only while its
    bound does not strictly exceed the k-th best true distance.  Pruning
    power then reflects exactly the tightness of the method's bound plus
    the index's navigation quality.

    Leaf entries enter the queue keyed by their exact bound, read by series
    id from the query's one batch pass over the database's columnar store
    (every segment method).  DBCH nodes enter keyed by their exact node
    distance, read by node slot from the query's one batch pass over the
    tree's stacked hulls (every method with a ``pairwise_batch``); R-tree
    nodes, and every node of a scalar walk, call ``node_distance``.
    Without a store the :mod:`bound cascade <repro.distance.cascade>`
    applies to entries: they enter keyed by their cheap dominated tier and
    are refined to the exact key only on reaching the front;
    tick-preserving reinsertion keeps the pop sequence of refined items —
    and hence results, verifications and all counters — identical to the
    single-bound walk.
    """

    def __init__(
        self,
        db,
        query,
        k: int,
        lookahead: int,
        use_batch_bounds: bool,
        cascade: bool = True,
        collector=None,
    ):
        super().__init__(db, query, k, lookahead, collector)
        self.frontier = _Frontier()
        self.visited = 0
        #: exact entry bounds indexed by series id (a plain list: the walk
        #: reads one Python float per leaf entry), or ``None``
        self._entry_bounds = None
        batch = _batch_bounds(db, self.ctx) if use_batch_bounds else None
        if batch is not None:
            sids, bounds = batch
            by_sid = np.full(int(sids.max()) + 1, np.nan)
            by_sid[sids] = bounds
            self._entry_bounds = by_sid.tolist()
        use_cascade = cascade and self._entry_bounds is None
        self._qc = _query_cascade(db, self.ctx) if use_cascade else None
        #: exact DBCH node keys indexed by ``node.slot``, or ``None``
        self._node_keys = keys = None
        pairwise_batch = db.suite.pairwise_batch
        if use_batch_bounds and pairwise_batch is not None and db.index_kind == IndexKind.DBCH:
            self._node_keys = keys = db.tree.node_keys(self.ctx.representation, pairwise_batch)
        #: node keys that are navigation hints, not bounds (adaptive R-tree):
        #: they order the walk but may never stop it or skip a subtree.
        self._hint_nodes = not db.node_bounds_exact
        root = db.tree.root
        key = db.node_distance(self.ctx, root) if keys is None else keys[root.slot]
        self.frontier.push_node(key, root)

    def _collect(self, budget: int) -> "List[int]":
        pending: "List[int]" = []
        db, frontier, qc = self.db, self.frontier, self._qc
        while len(pending) < budget and frontier:
            dist, tick, kind, payload = frontier.pop()
            if self.topk.full and dist > self.topk.threshold:
                if not self._hint_nodes:
                    self.done = True
                    return pending
                if kind in ("entry", "uentry"):
                    continue  # entry bounds stay exact; node keys are hints
            if kind == "uentry":
                frontier.reinsert(qc.refine(payload.representation), tick, "entry", payload)
                continue
            if kind == "entry":
                pending.append(payload.series_id)
                continue
            self.visited += 1
            if payload.is_leaf:
                if self._entry_bounds is not None:
                    for entry in payload.entries:
                        frontier.push_entry(self._entry_bounds[entry.series_id], entry)
                elif qc is not None:
                    for entry in payload.entries:
                        frontier.push_entry(
                            qc.cheap(entry.representation), entry, refined=False
                        )
                else:
                    for entry in payload.entries:
                        frontier.push_entry(
                            db.suite.query_bound(self.ctx, entry.representation), entry
                        )
            elif self._node_keys is not None:
                for child in payload.children:
                    frontier.push_node(self._node_keys[child.slot], child)
            else:
                for child in payload.children:
                    frontier.push_node(db.node_distance(self.ctx, child), child)
        if not frontier:
            self.done = True
        return pending

    def finalize(self) -> KNNResult:
        if self._qc is not None:
            self._qc.flush()
        ids, distances = self._ranked()
        return KNNResult(
            ids=ids,
            distances=distances,
            n_verified=self.verified,
            n_total=len(self.db.entries),
            nodes_visited=self.visited,
            n_candidates=self.frontier.entry_pushes,
            node_pushes=self.frontier.node_pushes,
            heap_pushes=self.frontier.pushes,
        )


def make_state(
    db,
    query: np.ndarray,
    k: int,
    lookahead: int,
    use_batch_bounds: bool,
    cascade: bool = True,
    collector=None,
):
    """The right state machine for ``db``'s index configuration.

    ``collector`` replaces the k-best heap as the walk's result set; a
    range walk passes :class:`repro.index.knn.RangeHits` with
    ``k=WHOLE_RUN``.
    """
    state = ScanState if db.tree is None else TreeState
    return state(db, query, k, lookahead, use_batch_bounds, cascade, collector)
