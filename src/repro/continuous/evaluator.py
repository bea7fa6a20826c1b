"""The incremental evaluator: mutations in, notification deltas out.

:class:`ContinuousEvaluator` wraps any mutable engine target — a
:class:`repro.index.SeriesDatabase`, a
:class:`repro.storage.DiskBackedDatabase` or a
:class:`repro.serving.ShardedEngine` — and routes ``insert``/``delete``
through it.  After each mutation lands (WAL first, as always), every
standing subscription re-evaluates *incrementally*.  What a subscription
does with a mutation is its watch kind's business
(:mod:`repro.continuous.watches`); this class owns what is the same for
all of them: the lock that makes seqs and frontiers advance atomically per
mutation, the per-subscription ``seq``, and sink-then-ack delivery.

Durability: subscriptions live in a :class:`SubscriptionRegistry` whose
log replays beside the data WAL.  Delivery acks are written *after* the
sink callback returns, so after a SIGKILL :meth:`resync` re-runs each
query on the recovered target and re-emits the delta against the last
acked frontier — at-least-once delivery, de-duplicated by ``seq``.
"""

from __future__ import annotations

import threading
import time
from operator import methodcaller
from typing import Callable, Iterable, List, Optional

import numpy as np

from .. import obs
from .queries import Notification, StandingQuery
from .registry import SubscriptionRegistry
from .watches import make_watch

__all__ = ["ContinuousEvaluator"]

Sink = Callable[[Notification], None]


class ContinuousEvaluator:
    """Standing-query evaluation over one mutable engine target.

    All mutation entry points (``insert``/``delete``) are serialised by an
    internal lock, so notification seqs and frontiers advance atomically
    per mutation.  Reads never pass through here: query :attr:`target`.
    """

    def __init__(self, target, registry: "Optional[SubscriptionRegistry]" = None):
        #: the wrapped engine target
        self.target = target
        self.registry = registry if registry is not None else SubscriptionRegistry()
        self._lock = threading.RLock()
        #: subscription id -> its watch: the kind's evaluation state plus
        #: this class's per-subscription bookkeeping (``seq``, ``sink``)
        self._watches: dict = {}
        # Seed each watch from the registry's acked state: what the log
        # proves was delivered.  :meth:`resync` then reconciles against the
        # recovered target and re-emits anything a crash may have swallowed.
        for sid, sub in self.registry.subscriptions().items():
            watch = self._watches[sid] = make_watch(sub.query, target, sub.state)
            watch.seq = int(sub.seq)

    @classmethod
    def over(cls, target) -> "ContinuousEvaluator":
        """``target`` itself when it already is an evaluator (the caller
        wired a durable registry), else a new one with an in-memory registry
        — how a client or server adopts whatever it was handed."""
        return target if isinstance(target, cls) else cls(target)

    # -- subscription lifecycle -----------------------------------------
    def subscribe(self, query: StandingQuery, sink: "Optional[Sink]" = None) -> str:
        """Register a standing query; emits the initial ``full`` snapshot:
        its current result over the live collection."""
        with self._lock:
            watch = make_watch(query, self.target)
            watch.sink = sink
            # the first run comes before the watch is registered anywhere: a
            # query the target rejects (wrong length) raises here and leaves
            # no live watch behind to fail every later mutation
            watch.rerun()
            sid = self.registry.subscribe(query)
            self._watches[sid] = watch
            self._deliver(sid, watch, watch.snapshot(full=True), time.perf_counter())
            return sid

    def unsubscribe(self, sid: str) -> bool:
        """Drop a subscription and its runtime state."""
        with self._lock:
            self._watches.pop(sid, None)
            return self.registry.unsubscribe(sid)

    def attach_sink(self, sid: str, sink: "Optional[Sink]") -> None:
        """Route a subscription's notifications to ``sink`` (one per sub;
        ``None`` stops delivering while the subscription stays registered)."""
        with self._lock:
            if sid not in self._watches:
                raise KeyError(f"unknown subscription {sid!r}")
            self._watches[sid].sink = sink

    # -- mutations -------------------------------------------------------
    def insert(self, series) -> int:
        """Insert one series, then re-evaluate every affected subscription."""
        started = time.perf_counter()
        series = np.asarray(series, dtype=float)
        with self._lock:
            self._check_length(series)
            gid = self.target.insert(series)
            self._evaluate([methodcaller("on_insert", gid, series)], started)
            return gid

    def insert_batch(self, data) -> "List[int]":
        """Insert many series, re-evaluating subscriptions per row in order.

        The target's batched insert runs one reduction pass over the whole
        matrix; subscription evaluation stays per-row (each watch folds in
        one ``(gid, series)`` at a time, independent of the other rows), so
        notifications match a loop of :meth:`insert` in everything but
        ``generation``: the whole batch has landed before the first row is
        evaluated, so every notification carries the post-batch generation.
        """
        started = time.perf_counter()
        matrix = np.asarray(data, dtype=float)
        with self._lock:
            self._check_length(matrix)
            gids = list(self.target.insert_batch(matrix))
            steps = [methodcaller("on_insert", gid, row) for gid, row in zip(gids, matrix)]
            self._evaluate(steps, started)
            return gids

    def delete(self, gid: int) -> bool:
        """Delete one series, then re-evaluate every affected subscription."""
        started = time.perf_counter()
        with self._lock:
            if not self.target.delete(gid):
                return False
            self._evaluate([methodcaller("on_delete", int(gid))], started)
            return True

    def _check_length(self, rows: np.ndarray) -> None:
        """Refuse rows a k-NN or range watch could not measure, before the
        target takes them: a watch subscribed on an empty target was never
        checked against a stored row, so its query length is unverified.
        A scalar is left for the target to reject."""
        if rows.ndim == 0:
            return
        length = rows.shape[-1]
        for sid, watch in self._watches.items():
            if not watch.accepts(length):
                raise ValueError(
                    f"subscription {sid!r} watches a series of length "
                    f"{len(watch.query.query)}, not {length}; unsubscribe it "
                    "to insert rows of this length"
                )

    def _evaluate(self, steps: Iterable[Callable], started: float) -> None:
        """The one evaluation loop: each step (one landed mutation, as a
        call on a watch) is folded into every subscription in turn, and
        whatever a watch reports is delivered before the next is asked."""
        with obs.span("continuous.evaluate"):
            for step in steps:
                for sid in list(self._watches):
                    watch = self._watches.get(sid)
                    if watch is None:
                        continue  # a sink unsubscribed it mid-loop
                    fields = step(watch)
                    if fields is not None:
                        self._deliver(sid, watch, fields, started)

    # -- recovery --------------------------------------------------------
    def resync(self, sid: "Optional[str]" = None) -> "List[Notification]":
        """Re-run subscriptions from scratch and re-emit unacked deltas.

        Call after reopening a crashed target: every subscription's query
        re-runs on the recovered snapshot and, where the result differs
        from the last *acked* frontier, a ``full`` notification is
        re-emitted with the seq it would have carried — identical content
        and seq as the possibly-lost original, so consumers de-duplicate by
        seq.
        """
        with self._lock:
            emitted: "List[Notification]" = []
            for one in [sid] if sid is not None else list(self._watches):
                sub = self.registry.get(one)
                if sub is None:
                    continue
                started = time.perf_counter()
                obs.count("continuous.full_reruns")
                watch = self._watches[one]
                watch.seq = int(sub.seq)
                watch.restore(sub.state)
                acked = watch.state()
                fields = watch.rerun()
                # an unmoved state means everything was confirmed — unless
                # not even the initial snapshot was (seq 0)
                if watch.state() != acked or watch.seq == 0:
                    emitted.append(self._deliver(one, watch, fields, started))
            return emitted

    def refresh(self, sid: str) -> "Optional[Notification]":
        """Unconditionally re-emit one subscription's full current snapshot.

        The catch-up path after server-side backpressure drops: the acked
        frontier is already current there (acks witness the sink call, not
        the consumer), so :meth:`resync` would emit nothing — this instead
        always pushes a replacement ``full`` snapshot.  ``None`` for an
        unknown subscription.
        """
        with self._lock:
            watch = self._watches.get(sid)
            if watch is None:
                return None
            started = time.perf_counter()
            obs.count("continuous.full_reruns")
            return self._deliver(sid, watch, watch.rerun(), started)

    # -- delivery ----------------------------------------------------------
    def _deliver(self, sid: str, watch, fields: dict, started: float) -> Notification:
        """Number one notification, then sink first, ack second — the order
        the delivery guarantee needs."""
        watch.seq += 1
        note = Notification(
            subscription_id=sid,
            seq=watch.seq,
            kind=watch.query.kind,
            generation=self.target.generation,
            **fields,
        )
        if watch.sink is not None:
            watch.sink(note)
        obs.count("continuous.notifications")
        obs.observe("continuous.notify_ms", (time.perf_counter() - started) * 1000.0)
        self.registry.ack(sid, note.seq, note.generation, watch.state())
        return note

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Close the registry log; the target stays open (caller-owned)."""
        self.registry.close()
