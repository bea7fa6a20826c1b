"""SIGKILL mid-notify: recovery re-emits exactly the unconfirmed deltas.

The child opens a durable database home plus a subscription registry with
``FsyncPolicy.ALWAYS``, registers a k-NN watch and a range watch, and
streams inserts, printing every delivered notification as a JSON line
*before* the registry acks it (the sink-then-ack order under test).  The
parent SIGKILLs it mid-stream — the kill can land between a delivery and
its ack, between the WAL fsync and the delivery, or mid-append — then
reopens everything, resyncs, and plays consumer: notifications are
de-duplicated by ``seq``.  After the merge

* no frontier is lost — the consumer's final state equals a scratch run
  on the recovered database, and
* no duplicate differs — any re-delivered seq carries the same content
  as the original, so seq-deduplication is safe.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.continuous import ContinuousEvaluator, SubscriptionRegistry
from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.reduction import PAA

LENGTH = 32
SEED_ROWS = 8
K = 3
RADIUS = 1.0
CHILD_SEED = 1234
TOTAL_INSERTS = 60

CHILD_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.continuous import (
        ContinuousEvaluator,
        KnnWatch,
        RangeWatch,
        SubscriptionRegistry,
    )
    from repro.io import open_database
    from repro.lifecycle import DurabilityOptions, FsyncPolicy

    home, total = sys.argv[1], int(sys.argv[2])
    always = DurabilityOptions(fsync=FsyncPolicy.ALWAYS)
    db = open_database(home, durability=always)
    registry = SubscriptionRegistry(home + "/subscriptions.log", durability=always)
    evaluator = ContinuousEvaluator(db, registry)

    def sink(note):
        print(json.dumps(note.to_payload()), flush=True)

    rng = np.random.default_rng({seed})
    query = np.asarray(db.data)[0] + 0.01
    evaluator.subscribe(KnnWatch(query=query, k={k}), sink=sink)
    evaluator.subscribe(RangeWatch(query=query, radius={radius}), sink=sink)
    for i in range(total):
        if i % 3 == 0:
            row = query + rng.normal(scale=0.05, size={length})  # joins both
        elif i % 7 == 5:
            row = np.sin(np.linspace(0, 6, {length})) + 6.0
        else:
            row = rng.normal(size={length}).cumsum()
        evaluator.insert(row)
    """
).format(seed=CHILD_SEED, k=K, radius=RADIUS, length=LENGTH)


def seed_home(tmp_path):
    rng = np.random.default_rng(0)
    db = SeriesDatabase(PAA(8), index=None)
    db.ingest(rng.normal(size=(SEED_ROWS, LENGTH)).cumsum(axis=1))
    home = tmp_path / "home"
    db.save(home)
    return home


def run_child_and_kill_after(home, notes_before_kill):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(home), str(TOTAL_INSERTS)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    delivered = []
    try:
        # acks are written only after the sink (the print) returns, so the
        # pipe holds everything the log can have acked: kill mid-stream,
        # then drain to EOF — a torn final line is a delivery the crash
        # interrupted before its ack, exactly what resync must re-emit
        for line in child.stdout:
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                break  # torn mid-write by the kill
            delivered.append(payload)
            if len(delivered) == notes_before_kill and child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
    finally:
        child.stdout.close()
        child.wait()
    return delivered


@pytest.mark.parametrize("kill_after", [2, 7, 19])
def test_sigkill_mid_notify_loses_and_duplicates_nothing(tmp_path, kill_after):
    home = seed_home(tmp_path)
    delivered = run_child_and_kill_after(home, kill_after)
    assert len(delivered) >= kill_after

    # consumer state before the crash: latest payload per (sid, seq)
    seen = {}
    for payload in delivered:
        key = (payload["subscription_id"], payload["seq"])
        assert key not in seen, "the live stream already duplicated a seq"
        seen[key] = payload

    # recover: WAL replay for the data, log replay for the subscriptions
    db = open_database(home)
    registry = SubscriptionRegistry(home / "subscriptions.log")
    assert len(registry) == 2
    evaluator = ContinuousEvaluator(db, registry)
    resynced = []
    for sid in registry.subscriptions():
        evaluator.attach_sink(sid, lambda note: resynced.append(note))
    emitted = evaluator.resync()
    assert [n.to_payload() for n in emitted] == [n.to_payload() for n in resynced]

    # merge with seq-dedupe: a re-delivered seq must repeat the original
    for note in emitted:
        payload = note.to_payload()
        key = (payload["subscription_id"], payload["seq"])
        if key in seen:
            original = seen[key]
            assert payload["ids"] == original["ids"]
            assert payload["distances"] == original["distances"]
        else:
            seen[key] = payload

    by_sid = {}
    for (sid, seq), payload in seen.items():
        by_sid.setdefault(sid, {})[seq] = payload

    states = registry.subscriptions()
    scratch = {
        "knn": lambda query: db.knn_batch(query.query[None, :], QueryOptions(k=K)).results[0],
        "range": lambda query: db.range_query(query.query, query.radius),
    }
    assert sorted(st.query.kind for st in states.values()) == ["knn", "range"]
    for sid, state in states.items():
        # nothing lost: the consumer's newest frontier is the scratch answer
        notes = by_sid[sid]
        final = notes[max(notes)]
        reference = scratch[state.query.kind](state.query)
        assert final["ids"] == [int(g) for g in reference.ids]
        assert final["distances"] == [float(d) for d in reference.distances]
        # and the seqs the consumer holds are gapless from 1
        assert sorted(notes) == list(range(1, max(notes) + 1))
    evaluator.close()
