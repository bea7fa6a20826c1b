"""Typed request/result vocabulary shared by every query surface.

One request object works against all three backends: the in-process
:class:`repro.engine.QueryEngine` (through :class:`~repro.client.LocalClient`),
the in-process :class:`repro.serving.ShardedEngine`, and the TCP server
behind ``repro serve``.  The dataclasses here are therefore the *wire
schema* too — :meth:`KnnRequest.to_payload` / :meth:`QueryResult.from_payload`
are exactly what :mod:`repro.serving.protocol` frames carry, so a request
answered locally and one answered over a socket are the same object shape
end to end.

Floats survive the JSON round trip bit-for-bit (``json`` serialises doubles
via their shortest round-trip repr), which is what lets the serving tests
assert *bit-identical* distances across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..engine.options import BatchResult, ExecutionMode, QueryOptions
from ..index.knn import KNNResult

__all__ = ["KnnRequest", "RangeRequest", "QueryResult"]


@dataclass(frozen=True, eq=False)
class KnnRequest:
    """A batch k-NN request — the one argument of ``Client.knn``.

    Args:
        queries: one query series (1-D) or a ``(Q, n)`` batch of them.
        k: neighbours per query (>= 1).
        mode: engine execution mode (see :class:`repro.engine.ExecutionMode`).
        deadline_s: optional wall-clock budget for the whole batch.
        lookahead: candidates verified per query per round by a tree walk
            or the lazy cascade heap; a scan over sorted bounds sizes its
            own blocks (see :class:`repro.engine.QueryOptions`).
        cascade: route representation bounds through the bound cascade.
    """

    queries: np.ndarray
    k: int = 1
    mode: "Union[ExecutionMode, str]" = ExecutionMode.AUTO
    deadline_s: Optional[float] = None
    lookahead: int = 1
    cascade: bool = True

    def __post_init__(self):
        matrix = np.atleast_2d(np.asarray(self.queries, dtype=float))
        if matrix.ndim != 2:
            raise ValueError("queries must be a series or a (Q, n) batch")
        object.__setattr__(self, "queries", matrix)
        options = self.options()  # validate the engine-facing fields eagerly
        object.__setattr__(self, "k", options.k)
        object.__setattr__(self, "lookahead", options.lookahead)

    def options(self) -> QueryOptions:
        """The equivalent validated :class:`repro.engine.QueryOptions`."""
        return QueryOptions(
            k=self.k,
            mode=self.mode,
            deadline_s=self.deadline_s,
            lookahead=self.lookahead,
            cascade=self.cascade,
        )

    def to_payload(self) -> dict:
        """JSON-safe dict for the wire protocol (see :mod:`repro.serving.protocol`)."""
        return {
            "queries": self.queries.tolist(),
            "k": self.k,
            "mode": str(ExecutionMode(self.mode)),
            "deadline_s": self.deadline_s,
            "lookahead": self.lookahead,
            "cascade": self.cascade,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "KnnRequest":
        """Rebuild a request from its :meth:`to_payload` dict; keys it does
        not know, such as a retired option an older client still sends, are
        ignored."""
        return cls(
            queries=np.asarray(payload["queries"], dtype=float),
            k=payload.get("k", 1),
            mode=payload.get("mode", "auto"),
            deadline_s=payload.get("deadline_s"),
            lookahead=payload.get("lookahead", 1),
            cascade=bool(payload.get("cascade", True)),
        )


@dataclass(frozen=True, eq=False)
class RangeRequest:
    """A radius query — all series within Euclidean ``radius`` of ``query``."""

    query: np.ndarray
    radius: float

    def __post_init__(self):
        series = np.asarray(self.query, dtype=float)
        if series.ndim != 1:
            raise ValueError("query must be a single 1-D series")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        object.__setattr__(self, "query", series)

    def to_payload(self) -> dict:
        """JSON-safe dict for the wire protocol."""
        return {"query": self.query.tolist(), "radius": float(self.radius)}

    @classmethod
    def from_payload(cls, payload: dict) -> "RangeRequest":
        """Rebuild a request from its :meth:`to_payload` dict."""
        return cls(
            query=np.asarray(payload["query"], dtype=float),
            radius=float(payload["radius"]),
        )


@dataclass
class QueryResult:
    """One query's answer, identical across all three backends.

    ``ids``/``distances`` follow the engine's stable ``(distance, id)``
    tie-break; ``timed_out`` marks a partial answer cut short by the batch
    deadline; ``generation`` is the database version the query was served
    at (a tuple of per-shard generations when answered by a
    :class:`repro.serving.ShardedEngine`).
    """

    ids: "List[int]"
    distances: "List[float]"
    n_verified: int = 0
    n_total: int = 0
    timed_out: bool = False
    generation: object = None

    @property
    def pruning_power(self) -> float:
        """Paper Eq. (14): fraction of raw series that had to be measured."""
        return self.n_verified / self.n_total if self.n_total else 0.0

    @classmethod
    def from_knn(
        cls, result: KNNResult, timed_out: bool = False, generation: object = None
    ) -> "QueryResult":
        """Wrap one engine-level :class:`repro.index.KNNResult`."""
        return cls(
            ids=[int(i) for i in result.ids],
            distances=[float(d) for d in result.distances],
            n_verified=int(result.n_verified),
            n_total=int(result.n_total),
            timed_out=timed_out,
            generation=generation,
        )

    @classmethod
    def from_batch(cls, batch: BatchResult) -> "List[QueryResult]":
        """Unpack a :class:`repro.engine.BatchResult` into per-query results."""
        timed_out = set(batch.timed_out)
        return [
            cls.from_knn(result, timed_out=i in timed_out, generation=batch.generation)
            for i, result in enumerate(batch.results)
        ]

    def to_payload(self) -> dict:
        """JSON-safe dict for the wire protocol."""
        generation = self.generation
        if isinstance(generation, tuple):
            generation = list(generation)
        return {
            "ids": self.ids,
            "distances": self.distances,
            "n_verified": self.n_verified,
            "n_total": self.n_total,
            "timed_out": self.timed_out,
            "generation": generation,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryResult":
        """Rebuild a result from its :meth:`to_payload` dict."""
        generation = payload.get("generation")
        if isinstance(generation, list):
            generation = tuple(generation)
        return cls(
            ids=[int(i) for i in payload["ids"]],
            distances=[float(d) for d in payload["distances"]],
            n_verified=int(payload.get("n_verified", 0)),
            n_total=int(payload.get("n_total", 0)),
            timed_out=bool(payload.get("timed_out", False)),
            generation=generation,
        )
