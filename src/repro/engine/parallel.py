"""Worker-pool fan-out for the batched engine.

``run_parallel`` splits a batch's frontier walks across a ``fork`` process
pool.  The raw data matrix is copied once into POSIX shared memory
(:mod:`multiprocessing.shared_memory`); the forked workers inherit the
mapping, so no per-task pickling or per-worker copy of the collection ever
happens — each worker swaps the shared view in as its database's ``data``
and runs the ordinary vectorised engine on its slice of the queries.

Workers return plain :class:`repro.index.KNNResult` lists plus a metrics
snapshot.  Each worker records into a fresh enabled registry (when the
parent was collecting) and the parent folds the snapshots back in with
:meth:`repro.obs.MetricsRegistry.merge_snapshot`, *excluding* the names the
engine re-records itself from the returned results (``knn.*`` search
accounting, ``dist.euclidean.exact``, ``engine.*``) so nothing is counted
twice.  Merged metrics therefore match an in-process run exactly; the one
documented loss is the workers' *span trees* — wall/CPU tracing is
per-process, and the parent's enclosing ``engine.knn_batch`` span already
covers the fan-out wall time.  Fan-out degrades gracefully: on platforms
without ``fork``, or when the raw data lives behind a paged store rather
than an in-memory array, ``run_parallel`` returns ``None`` and the caller
stays sequential.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from multiprocessing import shared_memory
from typing import List, Optional

import numpy as np

__all__ = ["run_parallel", "RERECORDED_METRICS"]

#: metric names (or dotted prefixes ending in ``.``) the parent re-records
#: from worker results via ``record_search`` and the engine's own batch
#: accounting — excluded from worker-snapshot merging to avoid double counts.
RERECORDED_METRICS = (
    "knn.queries",
    "knn.nodes_visited",
    "knn.nodes_pruned",
    "knn.entries_refined",
    "knn.heap_pushes",
    "knn.verified_per_query",
    "knn.pruned.",
    "dist.euclidean.exact",
    "engine.",
)

#: set by the parent just before the pool forks; inherited by workers.
_WORKER_DB = None
_WORKER_DATA = None


def run_parallel(db, queries: np.ndarray, options):
    """Fan ``queries`` across ``options.parallelism`` worker processes.

    Returns ``(results, timed_out, rounds, workers)`` with results in query
    order, or ``None`` when fan-out is unavailable (no ``fork`` start
    method, paged/non-array raw data, or a batch too small to split).
    """
    data = db.data
    if not isinstance(data, np.ndarray):
        return None  # paged stores hold file handles; keep those in-process
    workers = min(options.parallelism, len(queries))
    if workers < 2:
        return None
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    chunks = [c for c in np.array_split(np.arange(len(queries)), workers) if len(c)]
    block = shared_memory.SharedMemory(create=True, size=max(data.nbytes, 1))
    shared = np.ndarray(data.shape, dtype=data.dtype, buffer=block.buf)
    shared[:] = data
    per_worker = replace(options, parallelism=1)
    global _WORKER_DB, _WORKER_DATA
    _WORKER_DB, _WORKER_DATA = db, shared
    try:
        with context.Pool(processes=len(chunks)) as pool:
            outputs = pool.map(
                _run_chunk, [(queries[chunk], per_worker) for chunk in chunks]
            )
    except OSError:
        return None
    finally:
        _WORKER_DB = _WORKER_DATA = None
        del shared
        block.close()
        block.unlink()
    from .. import obs

    results: "List" = []
    timed_out: "List[int]" = []
    rounds = 0
    for chunk, (chunk_results, chunk_timed_out, chunk_rounds, snap) in zip(
        chunks, outputs
    ):
        results.extend(chunk_results)
        timed_out.extend(int(chunk[i]) for i in chunk_timed_out)
        rounds = max(rounds, chunk_rounds)
        if snap is not None and obs.is_enabled():
            obs.registry().merge_snapshot(snap, exclude=RERECORDED_METRICS)
    return results, timed_out, rounds, len(chunks)


def _run_chunk(payload):
    """Worker body: answer one slice of the batch against the shared data."""
    chunk_queries, options = payload
    from .. import obs
    from .engine import QueryEngine

    # this mutates the forked copy only; the parent's database is untouched
    db = _WORKER_DB
    db.data = _WORKER_DATA
    db._engine = None
    # With the parent collecting, record into a fresh registry and ship its
    # snapshot back; spans stay off (per-process trees cannot merge).  The
    # parent still re-records the knn.*/engine.* accounting itself, so those
    # names are excluded from the merge (RERECORDED_METRICS).
    collecting = obs.is_enabled()
    obs.disable()
    if collecting:
        obs.set_registry(obs.MetricsRegistry(enabled=True))
    batch = QueryEngine(db).knn_batch(chunk_queries, options)
    snap = obs.registry().snapshot() if collecting else None
    return batch.results, batch.timed_out, batch.rounds, snap
