"""Standing-query vocabulary and the :class:`Notification` delta type.

A *standing query* is registered once and answered forever: the
:class:`~repro.continuous.ContinuousEvaluator` keeps its current result
frontier and emits a :class:`Notification` whenever a mutation changes it.
Four kinds exist:

* :class:`KnnWatch` — the query's top-k under the stable ``(distance, id)``
  tie-break, maintained incrementally;
* :class:`RangeWatch` — every live series within ``radius``;
* :class:`SubsequenceWatch` — occurrences of a short pattern inside each
  series inserted after the subscription (GEMINI's subsequence problem,
  evaluated on the stream);
* :class:`AnomalyWatch` — online discord alerts over the concatenated
  stream of inserted values, scored by
  :class:`repro.continuous.OnlineDiscordScorer`.

Every type round-trips through ``to_payload`` / ``from_payload`` — the same
dicts travel the TCP wire (push frames) and the durable subscription log,
so a replayed subscription is byte-for-byte the registered one.  The four
watch kinds share one codec (:class:`_Payload`), driven by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Tuple, Union

import numpy as np

__all__ = [
    "AnomalyWatch",
    "KnnWatch",
    "Notification",
    "RangeWatch",
    "StandingQuery",
    "SubsequenceWatch",
    "query_from_payload",
]


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


@dataclass(frozen=True, eq=False)
class SubsequenceWatch(_Payload):
    """Occurrences of ``pattern`` inside series inserted after subscribing.

    Each inserted series is scanned at the given ``stride``; windows within
    Euclidean ``radius`` of the pattern are de-duplicated to the locally
    best offset (the same rule as
    :meth:`repro.apps.SubsequenceIndex.range_search`).
    """

    kind: ClassVar[str] = "subsequence"

    pattern: np.ndarray
    radius: float
    stride: int = 1

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=float)
        if pattern.ndim != 1 or pattern.shape[0] < 2:
            raise ValueError("pattern must be a 1-D series of length >= 2")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "stride", int(self.stride))


@dataclass(frozen=True)
class AnomalyWatch(_Payload):
    """Online discord alerts over the stream of inserted values.

    Values of every series inserted after the subscription concatenate into
    one monitored stream; each completed window is scored by
    :class:`repro.continuous.OnlineDiscordScorer` and windows whose nearest
    non-overlapping predecessor is farther than ``threshold`` raise alerts.
    """

    kind: ClassVar[str] = "anomaly"

    window: int
    threshold: float
    stride: int = 1
    max_segments: int = 8
    history: int = 64

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        if self.history < 1:
            raise ValueError("history must be >= 1")


StandingQuery = Union[KnnWatch, RangeWatch, SubsequenceWatch, AnomalyWatch]

_QUERY_KINDS = {
    cls.kind: cls for cls in (KnnWatch, RangeWatch, SubsequenceWatch, AnomalyWatch)
}


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
    Subsequence watches report ``matches`` as ``(series_id, start,
    distance)`` triples; anomaly watches carry one ``alert`` payload per
    notification (see :class:`repro.continuous.AnomalyAlert`).
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
    matches: "Tuple[Tuple[int, int, float], ...]" = ()
    alert: Optional[dict] = field(default=None)

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
            "matches": [list(m) for m in self.matches],
            "alert": self.alert,
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
            matches=tuple(
                (int(g), int(s), float(d)) for g, s, d in payload.get("matches", ())
            ),
            alert=payload.get("alert"),
        )
