"""What each standing-query kind *does*: one evaluation object per kind.

:mod:`repro.continuous.queries` says what a watch *is* (the frozen
dataclasses that travel the wire and the log); this module says how each
is kept current.  Every kind answers the same seven questions, and
:data:`WATCH_KINDS` — keyed by ``kind`` exactly like the payload table in
``queries`` — is the only place a query type is mapped to behaviour:

=====================  ====================================================
``rerun()``            rebuild the result from scratch on the target; the
                       notifications that bring a holder of the previous
                       state up to date
``accepts(length)``    may a row of ``length`` points be inserted at all?
``on_insert(gid, s)``  fold one inserted row in; notifications, if any
``on_delete(gid)``     fold one delete in; notifications, if any
``snapshot(**delta)``  a notification carrying the current members
``state()``            the acked state the registry logs beside ``seq``
``restore(state)``     adopt a logged state (crash recovery, resync)
=====================  ====================================================

A "notification" here is the dict of :class:`~repro.continuous.Notification`
content fields; the evaluator adds the subscription id, seq, kind and
generation, delivers and acks.

Every incremental step uses the engine's one distance primitive and the
batch engine's ``(distance, id)`` tie-break, so a maintained result is
**bit-identical** to ``rerun`` on the final snapshot (adaptive reducers
need :attr:`repro.DistanceMode.LB`, the same exactness caveat as
sharding).  ``continuous.delta_evals`` / ``continuous.full_reruns`` expose
the delta-vs-full ratio.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..apps.windows import sliding_windows, windows_overlap
from ..engine.options import QueryOptions
from .anomaly import OnlineDiscordScorer
from .queries import AnomalyWatch, KnnWatch, RangeWatch, StandingQuery, SubsequenceWatch

__all__ = ["WATCH_KINDS", "make_watch"]

def _distance(row: np.ndarray, query: np.ndarray) -> float:
    """The engine's verification primitive, applied to one row.

    Must stay the row-wise ``np.linalg.norm(..., axis=1)`` form —
    :func:`repro.index.linear_scan` and the engine's verification rounds
    compute distances that way, and bit-identical frontiers require the
    identical floating-point reduction.
    """
    return float(np.linalg.norm(row[None, :] - query[None, :], axis=1)[0])


def _delta(previous: "List[int]", current: "List[int]") -> dict:
    """``added``/``removed``: how ``current`` members differ from ``previous``."""
    was, now = set(previous), set(current)
    return {
        "added": tuple(g for g in current if g not in was),
        "removed": tuple(g for g in previous if g not in now),
    }


class _Watch:
    """One subscription's evaluation state over one target.

    The snapshot-shaped kinds hold their result and say how to
    ``_rebuild`` it and which ids are its ``_members``; re-running is then
    the same for all of them: rebuild, and report a ``full`` snapshot with
    the delta against what was held before.
    """

    def __init__(self, query: StandingQuery, target, from_row: int, state: dict):
        self.query = query
        self.target = target
        #: rows ever inserted when the subscription was made — the first
        #: row a stream-shaped watch (subsequence, anomaly) sees
        self.from_row = from_row
        #: the evaluator's delivery bookkeeping: the last notification
        #: number handed out, and where notifications go
        self.seq = 0
        self.sink = None
        #: a new watch starts from ``{}``, one reopened from the log from
        #: its last acked state
        self.restore(state)

    def rerun(self) -> "List[dict]":
        previous = self._members()
        self._rebuild()
        return [self.snapshot(full=True, **_delta(previous, self._members()))]

    def accepts(self, length: int) -> bool:
        """Can a row of ``length`` points be folded in?  Stream-shaped kinds
        take any row; the frontier kinds override."""
        return True


class _Frontier(_Watch):
    """k-NN and range: ``pairs`` is the result in ``(distance, id)`` order.

    An inserted row's distance is one call of the engine's verification
    primitive; a from-scratch result comes from the target's own one-shot
    query — bound cascade, batched verification and (sharded) the
    scatter-gather merge included.
    """

    def _rebuild(self) -> None:
        # a target that never held a row has no engine to ask (it raises)
        if self.target.count == 0:
            self.pairs = []
            return
        result = self._scratch()
        self.pairs = [(float(d), int(g)) for d, g in zip(result.distances, result.ids)]

    def _members(self) -> "List[int]":
        return [g for _, g in self.pairs]

    def accepts(self, length: int) -> bool:
        return len(self.query.query) == length

    def snapshot(self, **delta) -> dict:
        return {
            "ids": tuple(self._members()),
            "distances": tuple(d for d, _ in self.pairs),
            **delta,
        }

    def state(self) -> dict:
        return {"ids": self._members(), "distances": [d for d, _ in self.pairs]}

    def restore(self, state: dict) -> None:
        #: (distance, global id)
        self.pairs: "List[Tuple[float, int]]" = [
            (float(d), int(g))
            for d, g in zip(state.get("distances", ()), state.get("ids", ()))
        ]


class KnnEvaluation(_Frontier):
    """The exact top-``k`` frontier of one query."""

    def _scratch(self):
        queries = np.asarray([self.query.query], dtype=float)
        return self.target.knn_batch(queries, QueryOptions(k=self.query.k)).results[0]

    def on_insert(self, gid: int, series: np.ndarray) -> "List[dict]":
        obs.count("continuous.delta_evals")
        entry = (_distance(series, self.query.query), gid)
        if len(self.pairs) >= self.query.k and entry >= self.pairs[-1]:
            return []  # the frontier is full and the new row is farther
        previous = self._members()
        self.pairs = sorted(self.pairs + [entry])[: self.query.k]
        return [self.snapshot(**_delta(previous, self._members()))]

    def on_delete(self, gid: int) -> "List[dict]":
        if gid not in self._members():
            obs.count("continuous.delta_evals")
            return []  # outside the frontier: the top-k cannot change
        # the frontier lost a member — only a full re-run can refill it
        obs.count("continuous.full_reruns")
        return self.rerun()


class RangeEvaluation(_Frontier):
    """Every live series within the radius of one query."""

    def _scratch(self):
        return self.target.range_query(self.query.query, self.query.radius)

    def on_insert(self, gid: int, series: np.ndarray) -> "List[dict]":
        obs.count("continuous.delta_evals")
        d = _distance(series, self.query.query)
        if d > self.query.radius:
            return []
        self.pairs = sorted(self.pairs + [(d, gid)])
        return [self.snapshot(added=(gid,))]

    def on_delete(self, gid: int) -> "List[dict]":
        obs.count("continuous.delta_evals")
        if gid not in self._members():
            return []  # no re-run can change the other members
        self.pairs = [pair for pair in self.pairs if pair[1] != gid]
        return [self.snapshot(removed=(gid,))]


class SubsequenceEvaluation(_Watch):
    """Pattern occurrences per series inserted at or after ``from_row``."""

    def _rebuild(self) -> None:
        self.matches = {}
        if self.from_row == self.target.count:
            return  # no row is in scope yet (every subscribe): skip the id sort
        for gid in self.target.live_ids():
            if gid >= self.from_row:
                self._scan(gid, self.target.row(gid))

    def _scan(self, gid: int, series: np.ndarray) -> bool:
        """Record ``series``' occurrences (in-radius, locally best); any?"""
        query = self.query
        length = query.pattern.shape[0]
        if series.shape[0] < length:
            return False
        windows, starts = sliding_windows(series, length, query.stride)
        distances = np.linalg.norm(windows - query.pattern[None, :], axis=1)
        hits = [
            (int(starts[i]), float(d)) for i, d in enumerate(distances) if d <= query.radius
        ]
        kept: "List[Tuple[int, float]]" = []
        for start, d in sorted(hits, key=lambda h: (h[1], h[0])):
            if not any(windows_overlap(start, seen, length) for seen, _ in kept):
                kept.append((start, d))
        if kept:
            self.matches[gid] = tuple(sorted(kept))
        return bool(kept)

    def _members(self) -> "List[int]":
        return sorted(self.matches)

    def snapshot(self, **delta) -> dict:
        matches = tuple(
            (gid, start, d) for gid in self._members() for start, d in self.matches[gid]
        )
        return {"matches": matches, **delta}

    def state(self) -> dict:
        return {
            "matches": {
                str(gid): [[s, d] for s, d in offsets] for gid, offsets in self.matches.items()
            }
        }

    def restore(self, state: dict) -> None:
        #: series id -> its ``(start, distance)`` occurrences, by start
        self.matches: "Dict[int, Tuple[Tuple[int, float], ...]]" = {
            int(g): tuple((int(s), float(d)) for s, d in offsets)
            for g, offsets in (state.get("matches") or {}).items()
        }

    def on_insert(self, gid: int, series: np.ndarray) -> "List[dict]":
        obs.count("continuous.delta_evals")
        return [self.snapshot(added=(gid,))] if self._scan(gid, series) else []

    def on_delete(self, gid: int) -> "List[dict]":
        obs.count("continuous.delta_evals")
        if self.matches.pop(gid, None) is None:
            return []
        return [self.snapshot(removed=(gid,))]


class AnomalyEvaluation(_Watch):
    """Online discord alerts over the stream of rows from ``from_row`` on.

    Scoring is deterministic in the values consumed, so the stream *is*
    the state: after ``restore``, ``rerun`` feeds a fresh scorer every row
    from ``from_row`` on, reproducing the original alerts with the original
    indices, and reports those the restored state says were never
    acknowledged.  Alerts are point events — there is no snapshot of them,
    so any other ``rerun`` (subscribe, refresh) has nothing to do.
    """

    def __init__(self, query, target, from_row, state):
        super().__init__(query, target, from_row, state)
        # a watch scores the rows inserted while it runs, whether new or
        # reopened from the log; only a ``restore`` after that asks for the
        # replay (``ContinuousEvaluator.resync``)
        self._replay_past = None

    def restore(self, state: dict) -> None:
        # an AnomalyWatch's fields are exactly the scorer's parameters
        self.scorer = OnlineDiscordScorer(**asdict(self.query))
        #: acked alert count the next ``rerun`` replays the stream past
        self._replay_past = int(state.get("alerts", 0))

    def _notify(self, alerts) -> "List[dict]":
        if alerts:
            obs.count("continuous.alerts", len(alerts))
        return [{"alert": alert.to_payload()} for alert in alerts]

    def rerun(self) -> "List[dict]":
        if self._replay_past is None:
            return []
        alerts = []
        for gid in range(self.from_row, self.target.count):
            alerts.extend(self.scorer.extend(self.target.row(gid)))
        skip, self._replay_past = self._replay_past, None
        return self._notify(alerts[skip:])

    def on_insert(self, gid: int, series: np.ndarray) -> "List[dict]":
        obs.count("continuous.delta_evals")
        return self._notify(self.scorer.extend(series))

    def on_delete(self, gid: int) -> "List[dict]":
        return []  # deletes don't rewind the stream

    def snapshot(self, **delta) -> dict:
        return delta  # alerts are point events: there are no members

    def state(self) -> dict:
        # NOT scorer.n_alerts: extend() scores a whole row before its alert
        # burst delivers one by one, so the scorer's count runs ahead of the
        # acks mid-burst and a crash there would skip the undelivered tail
        # on resync.  Every anomaly notification past the initial snapshot
        # is one alert, so the delivered count as of ``seq`` is seq - 1.
        return {"points": self.scorer.n_points, "alerts": max(0, self.seq - 1)}


#: standing-query kind -> its evaluation class (the one such mapping)
WATCH_KINDS = {
    KnnWatch.kind: KnnEvaluation,
    RangeWatch.kind: RangeEvaluation,
    SubsequenceWatch.kind: SubsequenceEvaluation,
    AnomalyWatch.kind: AnomalyEvaluation,
}


def make_watch(query: StandingQuery, target, from_row: int, state: "Optional[dict]" = None):
    """The evaluation object keeping ``query`` current over ``target``,
    starting empty or from a logged ``state``."""
    return WATCH_KINDS[query.kind](query, target, from_row, state or {})
