"""Continuous queries: standing subscriptions over streaming ingest.

Register a query once — k-NN or range — and receive incremental
:class:`Notification` deltas as the write-ahead log advances, instead of
polling one-shot queries.  See ``docs/continuous.md`` for the
architecture, wire-protocol push frames, backpressure semantics and
delivery guarantees.

* :mod:`repro.continuous.queries` — the standing-query vocabulary and the
  typed notification delta;
* :mod:`repro.continuous.registry` — durable, replayable subscription
  state (a checksummed log beside the data WAL);
* :mod:`repro.continuous.watches` — what each kind does with a mutation:
  one evaluation object per kind, one table from kind to object;
* :mod:`repro.continuous.evaluator` — locking, seqs and sink-then-ack
  delivery around one loop over the subscriptions' watches.
"""

from .evaluator import ContinuousEvaluator
from .queries import KnnWatch, Notification, RangeWatch, StandingQuery, query_from_payload
from .registry import SUBSCRIPTIONS_FILENAME, SubscriptionRegistry, SubscriptionState

__all__ = [
    "ContinuousEvaluator",
    "KnnWatch",
    "Notification",
    "RangeWatch",
    "StandingQuery",
    "SubscriptionRegistry",
    "SubscriptionState",
    "SUBSCRIPTIONS_FILENAME",
    "query_from_payload",
]
