"""The client base class and the in-process backend.

:class:`Client` is the one query surface :func:`repro.client.connect`
returns, whatever the backend; :class:`LocalClient` implements it directly
over anything with the engine surface (``knn_batch`` / ``range_batch``):
a :class:`repro.index.SeriesDatabase` (memory or disk-backed) or a
:class:`repro.serving.ShardedEngine`.
"""

from __future__ import annotations

import queue as _queue
from typing import List

import numpy as np

from .. import obs
from ..continuous import ContinuousEvaluator, Notification, StandingQuery
from .api import KnnRequest, QueryResult, RangeRequest
from .subscription import Subscription

__all__ = ["Client", "LocalClient"]


class Client:
    """Abstract query surface shared by every backend.

    One :class:`~repro.client.KnnRequest` / :class:`~repro.client.RangeRequest`
    works against all implementations and always yields
    :class:`~repro.client.QueryResult` objects with identical semantics —
    the point of the facade.  The mutation surface (``insert``/``delete``)
    and the continuous surface (``subscribe``/``unsubscribe``) behave
    identically too: a standing query registered through any backend emits
    the same :class:`repro.continuous.Notification` deltas.  Clients are
    context managers; ``close()`` is idempotent.
    """

    def knn(self, request: KnnRequest) -> "List[QueryResult]":
        """Answer a batch k-NN request, one result per query row."""
        raise NotImplementedError

    def range(self, request: RangeRequest) -> QueryResult:
        """Answer a radius query (ids/distances hold every hit in range)."""
        raise NotImplementedError

    def insert(self, series) -> int:
        """Insert one series; returns its (global) id.

        Standing subscriptions observe the insert and push their deltas.
        """
        raise NotImplementedError

    def delete(self, series_id: int) -> bool:
        """Tombstone one series id; ``False`` when it isn't live."""
        raise NotImplementedError

    def subscribe(self, query: StandingQuery) -> Subscription:
        """Register a standing query; returns its notification stream."""
        raise NotImplementedError

    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop a standing query by id (``Subscription.close`` calls this)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Backend and metrics information (shape varies by backend)."""
        raise NotImplementedError

    def ping(self) -> bool:
        """Cheap liveness check."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend connection/resources (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class LocalClient(Client):
    """In-process backend: requests run straight through the engine.

    ``target`` is kept as :attr:`database` for callers that need
    engine-level access (mutation, lifecycle); the client itself never
    mutates it.
    """

    def __init__(self, target, owns: bool = False):
        #: mutation and subscription calls go through the evaluator, so
        #: standing queries see every delta
        self._continuous = ContinuousEvaluator.over(target)
        self.database = self._continuous.target
        #: whether close() should tear the backend down (True when connect()
        #: opened the backend itself from a path; False for caller-owned objects)
        self._owns = owns

    def knn(self, request: KnnRequest) -> "List[QueryResult]":
        """Run the batch through the target's ``knn_batch``."""
        batch = self.database.knn_batch(request.queries, request.options())
        return QueryResult.from_batch(batch)

    def range(self, request: RangeRequest) -> QueryResult:
        """Run the radius query through the target's ``range_batch``; the
        reply carries the generation of the snapshot the walk ran on."""
        batch = self.database.range_batch(request.query[None, :], request.radius)
        return QueryResult.from_batch(batch)[0]

    # -- mutation + continuous surface -----------------------------------
    def insert(self, series) -> int:
        """Insert through the evaluator so subscriptions see the delta."""
        return self._continuous.insert(np.asarray(series, dtype=float))

    def delete(self, series_id: int) -> bool:
        """Delete through the evaluator so subscriptions see the delta."""
        return self._continuous.delete(series_id)

    def subscribe(self, query: StandingQuery) -> Subscription:
        """Register a standing query fed by an in-process queue."""
        inbox: "_queue.Queue[Notification]" = _queue.Queue()
        sid = self._continuous.subscribe(query, sink=inbox.put)

        def fetch(timeout):
            try:
                return inbox.get(timeout=timeout)
            except _queue.Empty:
                raise TimeoutError(
                    f"no notification for {sid} within {timeout}s"
                ) from None

        return Subscription(sid, self, fetch)

    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop a standing query by id."""
        return self._continuous.unsubscribe(subscription_id)

    def stats(self) -> dict:
        """Backend info plus a metrics snapshot when collection is enabled."""
        body = {
            "server": {
                "backend": "local",
                "shards": getattr(self.database, "n_shards", 1),
                "subscriptions": len(self._continuous.registry),
            }
        }
        if obs.is_enabled():
            body["stats"] = obs.RunReport.collect(meta={"source": "repro.client"}).to_dict()
        return body

    def ping(self) -> bool:
        """Always reachable — the backend lives in this process."""
        return True

    def close(self) -> None:
        """Tear the backend down if this client opened it (else a no-op)."""
        if not self._owns:
            return
        self._continuous.close()
        closer = getattr(self.database, "close", None)
        if callable(closer):
            closer()
