"""Durable subscription state: a replayable log beside the data WAL.

Standing subscriptions must survive exactly what ingest survives — a
SIGKILL at any instant.  The registry therefore persists every
subscription-visible event to a :class:`repro.lifecycle.recordfile.RecordFile`
— the very file the data WAL sits on, so framing, torn-tail replay,
truncate-on-open and the fsync policy are one implementation — whose
payloads are UTF-8 JSON objects.

Three record ops exist: ``subscribe`` (the standing query, verbatim),
``unsubscribe``, and ``ack`` — the delivered frontier of one notification
(seq, generation and the watch's result state).  Acks are written *after* the sink delivers, so the log's
replayed state is always *at or behind* what the consumer saw; recovery
(:meth:`repro.continuous.ContinuousEvaluator.resync`) re-runs each query
from scratch and re-emits the delta against the acked frontier — at-least-
once delivery, de-duplicated by ``seq`` on the consumer side (see
``docs/continuous.md``).

A registry opened without a path keeps the same state in memory only
(tests, ephemeral servers).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from threading import RLock
from typing import Dict, Optional, Union

from .. import obs
from ..lifecycle.recordfile import DurabilityOptions, RecordFile
from .queries import StandingQuery, query_from_payload

__all__ = ["SubscriptionRegistry", "SubscriptionState", "SUBSCRIPTIONS_FILENAME"]

PathLike = Union[str, pathlib.Path]

#: identifies a subscription log and its format version.
MAGIC = b"RPSUB\x00\x01\n"

#: default subscription-log filename inside a database directory.
SUBSCRIPTIONS_FILENAME = "subscriptions.log"

#: guards replay against a corrupt length prefix claiming gigabytes.
_MAX_PAYLOAD = 16 * 1024 * 1024


def _decode(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


@dataclass
class SubscriptionState:
    """One subscription's replayable state.

    ``seq`` is the last *acknowledged* notification sequence number;
    ``state`` is the acked frontier (``ids``/``distances``).
    """

    sid: str
    query: StandingQuery
    seq: int = 0
    generation: object = None
    state: dict = field(default_factory=dict)


class SubscriptionRegistry:
    """Replayable registry of standing subscriptions.

    Args:
        path: log file location; ``None`` keeps the registry in memory
            only (no crash durability).
        durability: a :class:`repro.lifecycle.DurabilityOptions` — only
            the fsync policy applies here (``wal=False`` still logs;
            subscriptions are control-plane state, not bulk ingest).
    """

    def __init__(
        self,
        path: "Optional[PathLike]" = None,
        durability: "Optional[DurabilityOptions]" = None,
    ):
        self._subs: "Dict[str, SubscriptionState]" = {}
        self._counter = 0
        self._lock = RLock()
        self._log: "Optional[RecordFile]" = None
        if path is not None:
            self._log = RecordFile(path, MAGIC, _MAX_PAYLOAD, _decode, durability)
            with obs.span("continuous.replay"):
                for record in self._log.open()[0]:
                    self._apply(record)

    def _apply(self, record: dict) -> None:
        """One state transition — replayed from the log or freshly made."""
        op = record.get("op")
        sid = record.get("sid")
        if op == "subscribe":
            # older logs' subscribe records also carry a ``from_row`` ingest
            # cursor; it is ignored, so those logs still replay
            self._subs[sid] = SubscriptionState(sid=sid, query=query_from_payload(record["query"]))
            self._counter = max(self._counter, int(record.get("counter", 0)))
        elif op == "unsubscribe":
            self._subs.pop(sid, None)
        elif op == "ack" and sid in self._subs:
            sub = self._subs[sid]
            sub.seq = int(record["seq"])
            generation = record.get("generation")
            sub.generation = (
                tuple(generation) if isinstance(generation, list) else generation
            )
            sub.state = record.get("state", {})

    def _commit(self, record: dict) -> None:
        """Apply one new transition and log it, so a replay of the log
        walks exactly the transitions the live registry made."""
        self._apply(record)
        if self._log is not None:
            self._log.append(json.dumps(record, separators=(",", ":")).encode("utf-8"))

    # -- the registry surface ---------------------------------------------
    def subscribe(self, query: StandingQuery, sid: "Optional[str]" = None) -> str:
        """Register one standing query; returns its subscription id."""
        with self._lock:
            counter = self._counter + 1
            if sid is None:
                sid = f"sub-{counter:06d}"
            if sid in self._subs:
                raise ValueError(f"subscription id {sid!r} already registered")
            self._commit(
                {"op": "subscribe", "sid": sid, "counter": counter, "query": query.to_payload()}
            )
            obs.gauge_set("continuous.subscriptions", len(self._subs))
            return sid

    def unsubscribe(self, sid: str) -> bool:
        """Drop one subscription; ``False`` when the id is unknown."""
        with self._lock:
            if sid not in self._subs:
                return False
            self._commit({"op": "unsubscribe", "sid": sid})
            obs.gauge_set("continuous.subscriptions", len(self._subs))
            return True

    def ack(self, sid: str, seq: int, generation: object, state: dict) -> None:
        """Persist one delivered notification's frontier (call *after* delivery)."""
        with self._lock:
            if sid not in self._subs:
                return  # racing unsubscribe: nothing to record
            # a sharded generation tuple is logged as the JSON list it
            # serialises to, and replays back into a tuple
            self._commit(
                {"op": "ack", "sid": sid, "seq": int(seq), "generation": generation, "state": state}
            )

    def get(self, sid: str) -> "Optional[SubscriptionState]":
        """One subscription's current state (``None`` when unknown)."""
        with self._lock:
            return self._subs.get(sid)

    def subscriptions(self) -> "Dict[str, SubscriptionState]":
        """A snapshot of every active subscription, keyed by id."""
        with self._lock:
            return dict(self._subs)

    def __len__(self) -> int:
        return len(self._subs)

    def close(self) -> None:
        """Flush and close the log (idempotent)."""
        with self._lock:
            if self._log is not None:
                self._log.close()
                # teardown races (a connection dropping its subscriptions
                # after shutdown) still update the in-memory state
                self._log = None
