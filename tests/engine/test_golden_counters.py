"""Golden accounting record: the search counters a change must not move.

A small seeded SAPLA-12 workload in ``DistanceMode.LB`` runs as a scan and
behind a bulk-built DBCH-tree; every query's ``KNNResult`` counters, and the
tree's node count and height, must equal ``golden_counters.json``.

``golden_batch_and_home.json`` pins two more records on the same rows:

* the same 12 queries as one ``VECTORIZED`` call and one ``AUTO`` call (the
  multi-query rounds, which verify up to 32 rows per query at once);
* a small durable home (saved, reopened through ``connect`` with a WAL and a
  few standing ``KnnWatch``es, then fed inserts): ``representations.json``
  bytes per row, WAL bytes per inserted user byte, and the notifications the
  watches push.

A performance change that claims "same work, less time" keeps both files
unedited.  A change that really alters the work (a new bound, a different
tree, another on-disk format) regenerates them and says why::

    PYTHONPATH=src python tests/engine/test_golden_counters.py --write
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.client import connect
from repro.continuous import KnnWatch
from repro.engine import ExecutionMode, QueryOptions
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.lifecycle import DurabilityOptions
from repro.reduction import SAPLAReducer

GOLDEN = Path(__file__).with_name("golden_counters.json")
GOLDEN_BATCH_AND_HOME = Path(__file__).with_name("golden_batch_and_home.json")

SEED, ROWS, LENGTH, COEFFICIENTS, K = 11, 256, 128, 12, 8

COUNTERS = ("n_verified", "n_candidates", "nodes_visited", "node_pushes", "heap_pushes")

INDEXES = (("scan", IndexKind.NONE), ("dbch", IndexKind.DBCH))

#: rows inserted into the durable home, and standing watches over it
HOME_INSERTS, HOME_WATCHES = 24, 4


def workload():
    """``(data, queries)``: random walks, half the queries near a stored row."""
    rng = np.random.default_rng(SEED)
    data = rng.normal(size=(ROWS, LENGTH)).cumsum(axis=1)
    near = data[rng.integers(0, ROWS, size=6)] + rng.normal(0.0, 0.05, (6, LENGTH))
    fresh = rng.normal(size=(6, LENGTH)).cumsum(axis=1)
    return data, np.concatenate([near, fresh])


def _database(kind: IndexKind, data: np.ndarray) -> SeriesDatabase:
    db = SeriesDatabase(SAPLAReducer(COEFFICIENTS), index=kind)
    db.ingest(data, bulk=True)
    return db


def _counters(results) -> list:
    return [{c: getattr(r, c) for c in COUNTERS} for r in results]


def record() -> dict:
    """The counters this workload produces now."""
    data, queries = workload()
    out = {
        "workload": (
            f"seed {SEED}, {ROWS} x {LENGTH} random walks, SAPLA-{COEFFICIENTS}, "
            f"DistanceMode.LB, bulk build, k = {K}, {len(queries)} single queries"
        )
    }
    for name, kind in INDEXES:
        db = _database(kind, data)
        results = [db.knn(query, K) for query in queries]
        out[name] = {
            "nodes": 0 if db.tree is None else sum(1 for _ in db.tree.iter_nodes()),
            "height": 0 if db.tree is None else db.tree.height,
            "queries": _counters(results),
        }
    return out


def _drain(subscription) -> int:
    """How many notifications are waiting on ``subscription``."""
    count = 0
    while True:
        try:
            subscription.next(timeout=0)
        except TimeoutError:
            return count
        count += 1


def record_batch_and_home() -> dict:
    """The batch counters and durable-home ratios this workload produces now."""
    data, queries = workload()
    out = {
        "workload": (
            f"the rows and {len(queries)} queries of golden_counters.json as one call "
            f"per mode; a saved DBCH home reopened with a WAL, {HOME_WATCHES} KnnWatches "
            f"at k = {K}, then {HOME_INSERTS} inserts"
        )
    }
    for name, kind in INDEXES:
        db = _database(kind, data)
        out[name] = {
            str(mode): _counters(db.knn_batch(queries, QueryOptions(k=K, mode=mode)).results)
            for mode in (ExecutionMode.VECTORIZED, ExecutionMode.AUTO)
        }
    # random walks, every third one a noisy copy of a watched query
    watched = queries[-HOME_WATCHES:]
    rng = np.random.default_rng(SEED + 1)
    stream = rng.normal(size=(HOME_INSERTS, LENGTH)).cumsum(axis=1)
    near = np.arange(0, HOME_INSERTS, 3)
    stream[near] = watched[near % HOME_WATCHES] + rng.normal(0.0, 0.5, (len(near), LENGTH))
    with tempfile.TemporaryDirectory() as scratch:
        home = Path(scratch) / "home"
        _database(IndexKind.DBCH, data).save(home)
        representation_bytes = (home / "representations.json").stat().st_size
        client = connect(home, DurabilityOptions(fsync="batch", batch_records=64))
        try:
            watches = [client.subscribe(KnnWatch(q, k=K)) for q in watched]
            for watch in watches:
                _drain(watch)  # the initial full snapshots are set-up, not deltas
            for row in stream:
                client.insert(row)
            wal_bytes = client.database.wal.size_bytes()
            notifications = sum(_drain(watch) for watch in watches)
        finally:
            client.close()
    out["home"] = {
        "representation_bytes_per_row": representation_bytes / ROWS,
        "wal_bytes_per_user_byte": wal_bytes / stream.nbytes,
        "notifications": notifications,
    }
    return out


def test_counters_match_the_golden_record():
    expected = json.loads(GOLDEN.read_text())
    actual = record()
    for name, _ in INDEXES:
        assert actual[name]["nodes"] == expected[name]["nodes"], name
        assert actual[name]["height"] == expected[name]["height"], name
        got, want = actual[name]["queries"], expected[name]["queries"]
        assert len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{name} query {i}"
    assert actual["dbch"]["nodes"] > 1  # the tree really has structure


def test_batch_calls_and_durable_home_match_the_golden_record():
    expected = json.loads(GOLDEN_BATCH_AND_HOME.read_text())
    actual = record_batch_and_home()
    for name, _ in INDEXES:
        for mode in (ExecutionMode.VECTORIZED, ExecutionMode.AUTO):
            got, want = actual[name][str(mode)], expected[name][str(mode)]
            assert len(got) == len(want), (name, mode)
            for i, (g, w) in enumerate(zip(got, want)):
                assert g == w, f"{name} {mode} query {i}"
    assert actual["home"] == expected["home"]
    assert actual["home"]["notifications"] > 0  # the watches really saw inserts


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_counters.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    GOLDEN_BATCH_AND_HOME.write_text(json.dumps(record_batch_and_home(), indent=1) + "\n")
    print(f"wrote {GOLDEN} and {GOLDEN_BATCH_AND_HOME}")
