"""The batched k-NN (and range) query engine.

:class:`QueryEngine.knn_batch` plans every query of a batch up front (one
:mod:`state machine <repro.engine.states>` each), then advances all of them
in rounds: each round gathers every pending (query, candidate) pair across
the batch and resolves their exact Euclidean distances in a single
``np.linalg.norm(rows - query_rows, axis=1)`` matrix operation — the same
row-wise primitive :func:`repro.index.linear_scan` uses, so distances agree
bit-for-bit.  Because each state's decisions depend only on its own history,
a query answers identically whether it runs alone (``SeriesDatabase.knn``),
inside a batch, or inside a worker process (``parallelism > 1``).

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
from .parallel import run_parallel
from .states import WHOLE_RUN, gather_rows, make_state

__all__ = ["QueryEngine"]

#: minimum (pairs × series length) for a round to engage the early-abandoning
#: filter — below this the plain matrix norm is faster than filtering.
EARLY_ABANDON_MIN_ELEMENTS = 32768


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
            results, timed_out, rounds, used_workers = self._dispatch(
                db, queries, options, radius
            )
            for result in results:
                record_search(result, db.suite.mode)
            if obs.is_enabled():
                obs.count("engine.batches")
                obs.count("engine.rounds", rounds)
                obs.count("engine.pairs_verified", sum(r.n_verified for r in results))
                obs.observe("engine.batch_size", len(queries))
                obs.gauge_set("engine.parallelism", used_workers)
                if timed_out:
                    obs.count("engine.timeouts", len(timed_out))
            return BatchResult(
                results=results,
                timed_out=sorted(timed_out),
                elapsed_s=time.perf_counter() - start,
                rounds=rounds,
                parallelism=used_workers,
                generation=getattr(db, "generation", None),
            )
        finally:
            if pinned:
                db.release()

    # ------------------------------------------------------------------
    def _dispatch(self, db, queries: np.ndarray, options: QueryOptions, radius):
        """Choose and run an execution strategy over the pinned view ``db``;
        returns ``(results, timed_out, rounds, workers_used)``."""
        if options.parallelism > 1 and options.mode is not ExecutionMode.SEQUENTIAL:
            fanned = run_parallel(db, queries, options)
            if fanned is not None:
                results, timed_out, rounds, workers = fanned
                return results, timed_out, rounds, workers
        if options.mode is ExecutionMode.SEQUENTIAL:
            return self._run_sequential(db, queries, options) + (1,)
        return self._run_vectorized(db, queries, options, radius) + (1,)

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
        rounds, timed_out = self._execute(db, states, queries, deadline, options)
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
            done_rounds, late = self._execute(
                db, [state], queries[index][None, :], deadline, options
            )
            rounds += done_rounds
            if late:
                timed_out.append(index)
            results.append(state.finalize())
        return results, timed_out, rounds

    def _execute(
        self,
        db,
        states: list,
        queries: np.ndarray,
        deadline: "Optional[float]",
        options: "Optional[QueryOptions]" = None,
    ):
        """Drive ``states`` to completion; returns ``(rounds, timed_out)``.

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
                distances = self._round_distances(
                    db, data, queries, states, all_sids, owners, options
                )
                cursor = 0
                for index, series_ids in pending:
                    states[index].feed(
                        series_ids, distances[cursor : cursor + len(series_ids)]
                    )
                    cursor += len(series_ids)
                rounds += 1
            active = [index for index in active if not states[index].done]
        return rounds, timed_out

    # ------------------------------------------------------------------
    def _round_distances(
        self, db, data, queries, states, all_sids, owners, options
    ) -> np.ndarray:
        """Exact distances for one round's (query, candidate) pairs.

        Rounds large enough to clear :data:`EARLY_ABANDON_MIN_ELEMENTS` go
        through the early-abandoning blocked filter when the caller allows
        it; every other round (including every round of a small batch) is
        the plain one-shot matrix norm.
        """
        owner_idx = np.asarray(owners, dtype=np.intp)
        if (
            options is not None
            and options.early_abandon
            and len(all_sids) * queries.shape[1] >= EARLY_ABANDON_MIN_ELEMENTS
        ):
            thresholds = np.array(
                [states[index].topk.threshold for index in owners], dtype=float
            )
            if np.isfinite(thresholds).any():
                filtered = self._abandoning_distances(
                    db, data, queries, all_sids, owner_idx, thresholds
                )
                if filtered is not None:
                    return filtered
        rows = gather_rows(data, all_sids)
        query_rows = queries[owner_idx]
        return np.linalg.norm(rows - query_rows, axis=1)

    def _abandoning_distances(
        self, db, data, queries, all_sids, owner_idx, thresholds
    ) -> "Optional[np.ndarray]":
        """Early-abandoning verification of one round, or ``None`` to fall back.

        Squared distances accumulate over column chunks; a (query, candidate)
        pair is dropped as soon as its partial sum certainly exceeds the
        query's k-th-best distance sampled at round start.  Survivors are
        re-measured with the exact full-row ``np.linalg.norm`` on the
        ``float64`` rows — row distances are independent, so the values fed
        onward are bit-identical to the unfiltered round.  Dropped pairs
        feed ``inf``: their true distance strictly exceeds a full heap's
        threshold, so, exactly like the true value, ``inf`` self-evicts
        without touching the heap.  The float32 filter block only ever
        decides *which* rows get the exact treatment, with a margin covering
        its cast and accumulation error; thresholds of ``inf`` (heap not
        full yet) disable abandoning for their pairs naturally.
        """
        columns_of = getattr(db, "columns", None)
        block = columns_of() if callable(columns_of) else None
        if block is None:
            return None
        m = len(all_sids)
        n = queries.shape[1]
        finite = np.isfinite(thresholds)
        qrows = queries[owner_idx]
        if block.dtype == np.float32:
            # in-memory float32 filter cache: margin covers the cast error
            cand = block.gather(all_sids)
            filt_q = qrows.astype(np.float32)
            cnorm = block.row_norms[np.asarray(all_sids, dtype=np.intp)]
            qnorm = np.linalg.norm(qrows, axis=1)
            limit = (
                thresholds * (1.0 + 1e-9)
                + 1e-12
                + 1e-5 * (qnorm + cnorm)
                + 1e-9
            )
            exact_rows = None
        else:
            # float64 memmap rows: gather once (this charges the physical
            # I/O for every candidate), filter and re-measure the same rows
            cand = gather_rows(data, all_sids)
            filt_q = qrows
            limit = thresholds * (1.0 + 1e-9) + 1e-12
            exact_rows = cand
        limit_sq = np.where(finite, limit * limit, np.inf)
        partial = np.zeros(m, dtype=np.float64)
        alive = np.ones(m, dtype=bool)
        chunk = max(32, n // 8)
        for start in range(0, n, chunk):
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            diff = cand[live, start : start + chunk] - filt_q[live, start : start + chunk]
            partial[live] += np.einsum("ij,ij->i", diff, diff, dtype=np.float64)
            alive[live] = partial[live] <= limit_sq[live]
        survivors = np.flatnonzero(alive)
        distances = np.full(m, np.inf, dtype=float)
        if survivors.size:
            if exact_rows is None:
                rows = gather_rows(data, [all_sids[i] for i in survivors])
            else:
                rows = exact_rows[survivors]
            distances[survivors] = np.linalg.norm(rows - qrows[survivors], axis=1)
        if obs.is_enabled():
            obs.count("verify.filter_rounds")
            dropped = m - int(survivors.size)
            if dropped:
                obs.count("verify.abandoned", dropped)
        return distances


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
