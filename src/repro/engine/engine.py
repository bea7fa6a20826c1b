"""The batched k-NN (and range) query engine.

:class:`QueryEngine.knn_batch` plans every query of a batch up front (one
:mod:`state machine <repro.engine.states>` each), then advances all of them
in rounds: each round gathers every pending (query, candidate) pair across
the batch and resolves their exact Euclidean distances in a single
``np.linalg.norm(rows - query_rows, axis=1)`` matrix operation — the same
row-wise primitive :func:`repro.index.linear_scan` uses, so distances agree
bit-for-bit.  Because each state's decisions depend only on its own history,
a query answers identically whether it runs alone (``SeriesDatabase.knn``)
or inside a batch.

:meth:`QueryEngine.range_batch` runs the same states under the same pin
with a fixed-radius result collector (see :mod:`repro.engine.states`).

Deadlines are checked between rounds: when the batch's ``deadline_s``
expires, the remaining queries finalise with their best-so-far neighbours
and are reported in :attr:`BatchResult.timed_out`.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from .. import obs
from ..distance.suite import ADAPTIVE_METHODS
from ..index.knn import RangeHits, record_search
from .options import BatchResult, ExecutionMode, QueryOptions
from .states import WHOLE_RUN, gather_rows, make_state

__all__ = ["QueryEngine"]


class QueryEngine:
    """Batched query execution over one :class:`repro.index.SeriesDatabase`.

    The engine is stateless between calls; it reads the database's entries,
    tree and distance suite at call time, so ingest/insert/delete between
    batches are picked up automatically.

    Reach one through the :mod:`repro.client` facade
    (``connect(database)``), or via ``database.engine()`` /
    ``snapshot.engine()`` for engine-level access.
    """

    def __init__(self, database):
        self.database = database

    def knn_batch(
        self, queries: np.ndarray, options: "Optional[QueryOptions]" = None
    ) -> BatchResult:
        """Answer every row of ``queries`` (shape ``(Q, n)``) at ``options.k``.

        Returns a :class:`BatchResult` whose ``results[i]`` corresponds to
        ``queries[i]``, with ids and distances byte-identical to running
        each query alone.
        """
        options = options if options is not None else QueryOptions()
        with obs.span("engine.knn_batch"):
            return self._serve(queries, options, None)

    def range_batch(self, queries: np.ndarray, radius: float) -> BatchResult:
        """Every series within Euclidean ``radius`` of each row of ``queries``.

        The k-NN walk with the radius where k-NN has the k-th best distance:
        same state machines, same snapshot pin, same verification rounds;
        ``results[i]`` holds every hit of ``queries[i]``, nearest first.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        with obs.span("engine.range_batch"):
            return self._serve(queries, QueryOptions(k=WHOLE_RUN), radius)

    def _serve(
        self, queries: np.ndarray, options: QueryOptions, radius: "Optional[float]"
    ) -> BatchResult:
        """Pin a view, run the batch on it, record its accounting."""
        if self.database.data is None:
            raise RuntimeError("ingest data before searching")
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValueError("expected a (Q, n) array of queries")
        # one check for every path: a NaN query would otherwise leave a
        # store-backed scan no bound to take and answer [] without error
        length = self.database.data.shape[1]
        if queries.shape[1] != length or not np.isfinite(queries).all():
            raise ValueError(f"queries must be finite series of length {length}")
        # Pin a snapshot so concurrent inserts/deletes never shift the
        # entry list or tree under a batch mid-flight; plain databases
        # (no lifecycle mixin) run unpinned as before.
        snapshot_fn = getattr(self.database, "snapshot", None)
        db = snapshot_fn() if callable(snapshot_fn) else self.database
        pinned = db is not self.database
        start = time.perf_counter()
        try:
            if options.mode is ExecutionMode.SEQUENTIAL:
                results, timed_out, rounds = self._run_sequential(db, queries, options)
            else:
                results, timed_out, rounds = self._run_vectorized(
                    db, queries, options, radius
                )
            for result in results:
                record_search(result, db.suite.mode)
            if obs.is_enabled():
                obs.count("engine.batches")
                obs.count("engine.rounds", rounds)
                obs.count("engine.pairs_verified", sum(r.n_verified for r in results))
                obs.observe("engine.batch_size", len(queries))
                if timed_out:
                    obs.count("engine.timeouts", len(timed_out))
            return BatchResult(
                results=results,
                timed_out=sorted(timed_out),
                elapsed_s=time.perf_counter() - start,
                rounds=rounds,
                generation=getattr(db, "generation", None),
            )
        finally:
            if pinned:
                db.release()

    # ------------------------------------------------------------------
    def _run_vectorized(self, db, queries: np.ndarray, options: QueryOptions, radius):
        """All queries advance in lockstep; one distance call per round.

        With a ``radius`` every state collects into a
        :class:`repro.index.knn.RangeHits` instead of the k-best heap.
        """
        deadline = _absolute_deadline(options)
        batch_bounds = options.mode is ExecutionMode.VECTORIZED or _auto_batch_bounds(
            db, len(queries)
        )
        states = [
            make_state(
                db,
                query,
                options.k,
                options.lookahead,
                use_batch_bounds=batch_bounds,
                cascade=options.cascade,
                collector=None if radius is None else RangeHits(radius),
            )
            for query in queries
        ]
        rounds, timed_out = self._execute(db, states, queries, deadline)
        return [state.finalize() for state in states], timed_out, rounds

    def _run_sequential(self, db, queries: np.ndarray, options: QueryOptions):
        """Classic baseline: each query runs to completion with scalar bounds."""
        deadline = _absolute_deadline(options)
        results, timed_out, rounds = [], [], 0
        for index in range(len(queries)):
            state = make_state(
                db,
                queries[index],
                options.k,
                options.lookahead,
                use_batch_bounds=False,
                cascade=options.cascade,
            )
            done_rounds, late = self._execute(db, [state], queries[index][None, :], deadline)
            rounds += done_rounds
            if late:
                timed_out.append(index)
            results.append(state.finalize())
        return results, timed_out, rounds

    def _execute(self, db, states: list, queries: np.ndarray, deadline: "Optional[float]"):
        """Drive ``states`` to completion; returns ``(rounds, timed_out)``.

        Each round gathers every pending candidate row and measures it
        against its own query in one ``np.linalg.norm`` call.

        ``timed_out`` holds the indices (into ``states``) still unfinished
        when the deadline fired; their partial heaps remain valid.
        """
        data = db.data
        active = list(range(len(states)))
        rounds = 0
        timed_out: "List[int]" = []
        while active:
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = list(active)
                break
            pending: "list[tuple[int, List[int]]]" = []
            for index in active:
                series_ids = states[index].advance()
                if series_ids:
                    pending.append((index, series_ids))
            if pending:
                all_sids = [sid for _, sids in pending for sid in sids]
                owners = [index for index, sids in pending for _ in sids]
                rows = gather_rows(data, all_sids)
                distances = np.linalg.norm(rows - queries[owners], axis=1)
                cursor = 0
                for index, series_ids in pending:
                    states[index].feed(
                        series_ids, distances[cursor : cursor + len(series_ids)]
                    )
                    cursor += len(series_ids)
                rounds += 1
            active = [index for index in active if not states[index].done]
        return rounds, timed_out


def _auto_batch_bounds(db, n_queries: int) -> bool:
    """``ExecutionMode.AUTO``'s choice: read entry bounds from the store?

    Yes, with one exception while the one-query-vs-all kernels are rolled
    out in stages: a *multi-query scan* with an adaptive reducer stays on
    the lazy cascade heap (the path it took before the columnar store), and
    ``ExecutionMode.VECTORIZED`` is how a caller takes the store for such a
    batch today.  Single-query calls and tree walks always read the store.
    Ids, distances and every search counter are identical on both paths;
    why it is staged and what switches it over: ROADMAP item 2.
    """
    return n_queries == 1 or db.tree is not None or db.suite.method not in ADAPTIVE_METHODS


def _absolute_deadline(options: QueryOptions) -> "Optional[float]":
    """Translate ``deadline_s`` into an absolute monotonic instant."""
    if options.deadline_s is None:
        return None
    return time.monotonic() + options.deadline_s
