"""Standing-query vocabulary and the :class:`Notification` delta type.

A *standing query* is registered once and answered forever: the
:class:`~repro.continuous.ContinuousEvaluator` keeps its current result
frontier and emits a :class:`Notification` whenever a mutation changes it.
Two kinds exist:

* :class:`KnnWatch` — the query's top-k under the stable ``(distance, id)``
  tie-break, maintained incrementally;
* :class:`RangeWatch` — every live series within ``radius``.

Every type round-trips through ``to_payload`` / ``from_payload`` — the same
dicts travel the TCP wire (push frames) and the durable subscription log,
so a replayed subscription is byte-for-byte the registered one.  The
watch kinds share one codec (:class:`_Payload`), driven by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Tuple, Union

import numpy as np

__all__ = ["KnnWatch", "Notification", "RangeWatch", "StandingQuery", "query_from_payload"]


#: a standing-query field's annotation -> (value -> JSON, JSON -> value);
#: every field of every kind is one of these three
_FIELD_CODECS = {
    "np.ndarray": (np.ndarray.tolist, lambda values: np.asarray(values, dtype=float)),
    "int": (int, int),
    "float": (float, float),
}


class _Payload:
    """The payload codec of every standing-query kind: ``kind`` plus each
    dataclass field, in declaration order."""

    def to_payload(self) -> dict:
        """JSON-safe dict for the wire and the subscription log."""
        body = {f.name: _FIELD_CODECS[f.type][0](getattr(self, f.name)) for f in fields(self)}
        return {"kind": self.kind, **body}

    @classmethod
    def from_payload(cls, payload: dict):
        """Rebuild from a :meth:`to_payload` dict; a field the payload
        leaves out takes its default, and ``__post_init__`` validates."""
        present = [f for f in fields(cls) if f.name in payload]
        return cls(**{f.name: _FIELD_CODECS[f.type][1](payload[f.name]) for f in present})


@dataclass(frozen=True, eq=False)
class KnnWatch(_Payload):
    """Standing top-``k``: the query's current nearest neighbours."""

    kind: ClassVar[str] = "knn"

    query: np.ndarray
    k: int = 1

    def __post_init__(self):
        series = np.asarray(self.query, dtype=float)
        if series.ndim != 1:
            raise ValueError("query must be a single 1-D series")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "query", series)


@dataclass(frozen=True, eq=False)
class RangeWatch(_Payload):
    """Standing radius query: every live series within ``radius``."""

    kind: ClassVar[str] = "range"

    query: np.ndarray
    radius: float

    def __post_init__(self):
        series = np.asarray(self.query, dtype=float)
        if series.ndim != 1:
            raise ValueError("query must be a single 1-D series")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        object.__setattr__(self, "query", series)
        object.__setattr__(self, "radius", float(self.radius))


StandingQuery = Union[KnnWatch, RangeWatch]

_QUERY_KINDS = {cls.kind: cls for cls in (KnnWatch, RangeWatch)}


def query_from_payload(payload: dict) -> StandingQuery:
    """Rebuild a standing query from its ``to_payload`` dict."""
    kind = payload.get("kind")
    if kind not in _QUERY_KINDS:
        raise ValueError(f"unknown standing-query kind {kind!r}")
    return _QUERY_KINDS[kind].from_payload(payload)


@dataclass(frozen=True)
class Notification:
    """One incremental result delta for one subscription.

    ``seq`` increases by one per delivered notification of a subscription
    and is the client's idempotency key: re-deliveries after a crash carry
    the seq they were first assigned, so consumers drop any seq at or below
    the last one they processed.  ``full`` marks a complete-state resync
    (the initial snapshot, a post-recovery re-run, or a post-backpressure
    catch-up); applying it replaces the consumer's state rather than
    patching it.

    ``ids``/``distances`` are the subscription's *current* frontier in the
    stable ``(distance, id)`` order; ``added``/``removed`` are the global
    series ids that entered/left it relative to the previous notification.
    """

    subscription_id: str
    seq: int
    kind: str
    generation: object = None
    ids: "Tuple[int, ...]" = ()
    distances: "Tuple[float, ...]" = ()
    added: "Tuple[int, ...]" = ()
    removed: "Tuple[int, ...]" = ()
    full: bool = False

    def to_payload(self) -> dict:
        """JSON-safe dict — the body of a wire push frame."""
        generation = self.generation
        if isinstance(generation, tuple):
            generation = list(generation)
        return {
            "subscription_id": self.subscription_id,
            "seq": int(self.seq),
            "kind": self.kind,
            "generation": generation,
            "ids": list(self.ids),
            "distances": list(self.distances),
            "added": list(self.added),
            "removed": list(self.removed),
            "full": bool(self.full),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Notification":
        """Rebuild a notification from its :meth:`to_payload` dict."""
        generation = payload.get("generation")
        if isinstance(generation, list):
            generation = tuple(generation)
        return cls(
            subscription_id=str(payload["subscription_id"]),
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            generation=generation,
            ids=tuple(int(i) for i in payload.get("ids", ())),
            distances=tuple(float(d) for d in payload.get("distances", ())),
            added=tuple(int(i) for i in payload.get("added", ())),
            removed=tuple(int(i) for i in payload.get("removed", ())),
            full=bool(payload.get("full", False)),
        )
