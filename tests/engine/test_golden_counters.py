"""Golden accounting record: the search counters a change must not move.

A small seeded SAPLA-12 workload in ``DistanceMode.LB`` runs as a scan and
behind a bulk-built DBCH-tree; every query's ``KNNResult`` counters, and the
tree's node count and height, must equal ``golden_counters.json``.  A
performance change that claims "same work, less time" keeps this file
unedited.  A change that really alters the work (a new bound, a different
tree) regenerates it and says why::

    PYTHONPATH=src python tests/engine/test_golden_counters.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.index import SeriesDatabase
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import SAPLAReducer

GOLDEN = Path(__file__).with_name("golden_counters.json")

SEED, ROWS, LENGTH, COEFFICIENTS, K = 11, 256, 128, 12, 8

COUNTERS = ("n_verified", "n_candidates", "nodes_visited", "node_pushes", "heap_pushes")


def workload():
    """``(data, queries)``: random walks, half the queries near a stored row."""
    rng = np.random.default_rng(SEED)
    data = rng.normal(size=(ROWS, LENGTH)).cumsum(axis=1)
    near = data[rng.integers(0, ROWS, size=6)] + rng.normal(0.0, 0.05, (6, LENGTH))
    fresh = rng.normal(size=(6, LENGTH)).cumsum(axis=1)
    return data, np.concatenate([near, fresh])


def record() -> dict:
    """The counters this workload produces now."""
    data, queries = workload()
    out = {
        "workload": (
            f"seed {SEED}, {ROWS} x {LENGTH} random walks, SAPLA-{COEFFICIENTS}, "
            f"DistanceMode.LB, bulk build, k = {K}, {len(queries)} single queries"
        )
    }
    for name, kind in (("scan", IndexKind.NONE), ("dbch", IndexKind.DBCH)):
        db = SeriesDatabase(
            SAPLAReducer(COEFFICIENTS), index=kind, distance_mode=DistanceMode.LB
        )
        db.ingest(data, bulk=True)
        results = [db.knn(query, K) for query in queries]
        out[name] = {
            "nodes": 0 if db.tree is None else sum(1 for _ in db.tree.iter_nodes()),
            "height": 0 if db.tree is None else db.tree.height,
            "queries": [{c: getattr(r, c) for c in COUNTERS} for r in results],
        }
    return out


def test_counters_match_the_golden_record():
    expected = json.loads(GOLDEN.read_text())
    actual = record()
    for name in ("scan", "dbch"):
        assert actual[name]["nodes"] == expected[name]["nodes"], name
        assert actual[name]["height"] == expected[name]["height"], name
        got, want = actual[name]["queries"], expected[name]["queries"]
        assert len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{name} query {i}"
    assert actual["dbch"]["nodes"] > 1  # the tree really has structure


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_counters.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
