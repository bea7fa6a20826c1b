"""Durable subscription registry: replay and ack semantics.

The log must reopen to exactly the state it acknowledged.  What it shares
with the data WAL — torn tails, corrupt prefixes, bad and torn headers,
the fsync cadence — is in ``tests/lifecycle/test_recordfile.py``.
"""

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.continuous import (
    SUBSCRIPTIONS_FILENAME,
    ContinuousEvaluator,
    KnnWatch,
    RangeWatch,
    SubscriptionRegistry,
)
from repro.io import open_database

#: a durable disk home (PAA-8, DBCH, 24 rows + a WAL tail of inserts and
#: deletes, never checkpointed) with one k-NN and one range subscription,
#: written by ``homes/write_v1.py`` while subscribe records still carried a
#: ``from_row`` ingest cursor; ``expected.json`` holds the acked state and
#: what resuming the home delivered at the time
HOME_V1 = pathlib.Path(__file__).parent / "homes" / "v1"


def watch(seed=0, k=3):
    return KnnWatch(query=np.random.default_rng(seed).normal(size=8), k=k)


class TestInMemory:
    def test_subscribe_ack_unsubscribe_round_trip(self):
        registry = SubscriptionRegistry()
        sid = registry.subscribe(watch())
        assert sid == "sub-000001"
        assert len(registry) == 1
        sub = registry.get(sid)
        assert sub.seq == 0

        registry.ack(sid, 3, 17, {"ids": [1, 2], "distances": [0.5, 1.5]})
        sub = registry.get(sid)
        assert sub.seq == 3 and sub.generation == 17
        assert sub.state == {"ids": [1, 2], "distances": [0.5, 1.5]}

        assert registry.unsubscribe(sid) is True
        assert registry.unsubscribe(sid) is False
        assert registry.get(sid) is None and len(registry) == 0

    def test_duplicate_sid_is_rejected(self):
        registry = SubscriptionRegistry()
        registry.subscribe(watch(), sid="mine")
        with pytest.raises(ValueError, match="already registered"):
            registry.subscribe(watch(1), sid="mine")

    def test_ack_for_unknown_sid_is_a_no_op(self):
        registry = SubscriptionRegistry()
        registry.ack("sub-999999", 1, None, {})  # racing unsubscribe
        assert len(registry) == 0


class TestDurableReplay:
    def test_reopen_restores_subscriptions_and_acked_state(self, tmp_path):
        log = tmp_path / "subscriptions.log"
        registry = SubscriptionRegistry(log)
        knn_sid = registry.subscribe(watch(seed=1, k=4))
        range_sid = registry.subscribe(
            RangeWatch(query=np.arange(6, dtype=float), radius=2.5)
        )
        gone_sid = registry.subscribe(watch(seed=2))
        registry.ack(knn_sid, 5, (7, 8), {"ids": [10], "distances": [0.25]})
        registry.unsubscribe(gone_sid)
        registry.close()

        reopened = SubscriptionRegistry(log)
        assert sorted(reopened.subscriptions()) == sorted([knn_sid, range_sid])
        sub = reopened.get(knn_sid)
        assert sub.seq == 5
        assert sub.generation == (7, 8)  # tuple restored from the JSON list
        assert sub.state == {"ids": [10], "distances": [0.25]}
        assert sub.query.to_payload() == watch(seed=1, k=4).to_payload()
        assert reopened.get(range_sid).query.radius == 2.5
        # the counter resumed: a new subscription never reuses a burned id
        fresh = reopened.subscribe(watch(seed=3))
        assert fresh not in {knn_sid, range_sid, gone_sid}
        reopened.close()

    def test_a_home_written_with_from_row_cursors_resumes_its_watches(self, tmp_path):
        home = shutil.copytree(HOME_V1 / "home", tmp_path / "home")
        expected = json.loads((HOME_V1 / "expected.json").read_text())
        assert b'"from_row"' in (home / SUBSCRIPTIONS_FILENAME).read_bytes()

        db = open_database(home)
        registry = SubscriptionRegistry(home / SUBSCRIPTIONS_FILENAME)
        acked = {sid: [sub.seq, sub.state] for sid, sub in registry.subscriptions().items()}
        assert acked == expected["acked"]
        evaluator = ContinuousEvaluator(db, registry)
        notes = []
        for sid in acked:
            evaluator.attach_sink(sid, notes.append)
        # each acked frontier equals a scratch re-run on the recovered rows
        assert evaluator.resync() == []
        evaluator.insert_batch(np.asarray(expected["next_rows"]))
        evaluator.delete(expected["next_delete"])
        assert [note.to_payload() for note in notes] == expected["notifications"]
        evaluator.close()
