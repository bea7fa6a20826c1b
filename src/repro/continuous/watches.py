"""What each standing-query kind *does*: one evaluation object per kind.

:mod:`repro.continuous.queries` says what a watch *is* (the frozen
dataclasses that travel the wire and the log); this module says how each
is kept current.  Both kinds — k-NN and range — hold a frontier of
``(distance, id)`` pairs and answer the same seven questions, and
:data:`WATCH_KINDS` — keyed by ``kind`` exactly like the payload table in
``queries`` — is the only place a query type is mapped to behaviour:

=====================  ====================================================
``rerun()``            rebuild the result from scratch on the target; the
                       ``full`` notification that brings a holder of the
                       previous state up to date
``accepts(length)``    may a row of ``length`` points be inserted at all?
``on_insert(gid, s)``  fold one inserted row in; its notification or None
``on_delete(gid)``     fold one delete in; its notification or None
``snapshot(**delta)``  a notification carrying the current members
``state()``            the acked state the registry logs beside ``seq``
``restore(state)``     adopt a logged state (crash recovery, resync)
=====================  ====================================================

A "notification" here is the dict of :class:`~repro.continuous.Notification`
content fields; the evaluator adds the subscription id, seq, kind and
generation, delivers and acks.

Every incremental step uses the engine's one distance primitive and the
batch engine's ``(distance, id)`` tie-break, so a maintained result is
**bit-identical** to ``rerun`` on the final snapshot: every query bound
is a lower bound, as sharding needs too.  ``continuous.delta_evals`` /
``continuous.full_reruns`` expose the delta-vs-full ratio.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..engine.options import QueryOptions
from .queries import KnnWatch, RangeWatch, StandingQuery

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


class _Frontier:
    """One subscription's evaluation state over one target: ``pairs`` is
    the result in ``(distance, id)`` order.

    An inserted row's distance is one call of the engine's verification
    primitive; a from-scratch result comes from the target's own one-shot
    query — bound cascade, batched verification and (sharded) the
    scatter-gather merge included.
    """

    def __init__(self, query: StandingQuery, target, state: dict):
        self.query = query
        self.target = target
        #: the evaluator's delivery bookkeeping: the last notification
        #: number handed out, and where notifications go
        self.seq = 0
        self.sink = None
        #: a new watch starts from ``{}``, one reopened from the log from
        #: its last acked state
        self.restore(state)

    def rerun(self) -> dict:
        previous = self._members()
        # a target that never held a row has no engine to ask (it raises)
        if self.target.count == 0:
            self.pairs = []
        else:
            result = self._scratch()
            self.pairs = [(float(d), int(g)) for d, g in zip(result.distances, result.ids)]
        return self.snapshot(full=True, **_delta(previous, self._members()))

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

    def on_insert(self, gid: int, series: np.ndarray) -> "Optional[dict]":
        obs.count("continuous.delta_evals")
        entry = (_distance(series, self.query.query), gid)
        if len(self.pairs) >= self.query.k and entry >= self.pairs[-1]:
            return None  # the frontier is full and the new row is farther
        previous = self._members()
        self.pairs = sorted(self.pairs + [entry])[: self.query.k]
        return self.snapshot(**_delta(previous, self._members()))

    def on_delete(self, gid: int) -> "Optional[dict]":
        if gid not in self._members():
            obs.count("continuous.delta_evals")
            return None  # outside the frontier: the top-k cannot change
        # the frontier lost a member — only a full re-run can refill it
        obs.count("continuous.full_reruns")
        return self.rerun()


class RangeEvaluation(_Frontier):
    """Every live series within the radius of one query."""

    def _scratch(self):
        return self.target.range_query(self.query.query, self.query.radius)

    def on_insert(self, gid: int, series: np.ndarray) -> "Optional[dict]":
        obs.count("continuous.delta_evals")
        d = _distance(series, self.query.query)
        if d > self.query.radius:
            return None
        self.pairs = sorted(self.pairs + [(d, gid)])
        return self.snapshot(added=(gid,))

    def on_delete(self, gid: int) -> "Optional[dict]":
        obs.count("continuous.delta_evals")
        if gid not in self._members():
            return None  # no re-run can change the other members
        self.pairs = [pair for pair in self.pairs if pair[1] != gid]
        return self.snapshot(removed=(gid,))


#: standing-query kind -> its evaluation class (the one such mapping)
WATCH_KINDS = {
    KnnWatch.kind: KnnEvaluation,
    RangeWatch.kind: RangeEvaluation,
}


def make_watch(query: StandingQuery, target, state: "Optional[dict]" = None):
    """The evaluation object keeping ``query`` current over ``target``,
    starting empty or from a logged ``state``."""
    return WATCH_KINDS[query.kind](query, target, state or {})
