"""Write the ``v1`` corpus of saved homes that ``tests/io/test_homes.py`` reopens.

Six tiny homes, each with the answers of the same 8 fixed queries
(``k = 4``, one query per call) as the writing code read them back from
a reopened copy: ids, distances and every
:class:`repro.index.KNNResult` counter.

* ``memory-sapla-par-dbch`` — in-memory SAPLA-8 + DBCH, built with the
  default query bound of the time (Dist_PAR);
* ``disk-sapla-lb-scan`` — disk-backed SAPLA-8, no tree, Dist_LB;
* ``memory-paa-dbch`` — in-memory PAA-8 + DBCH;
* ``disk-paa-deletes`` — disk-backed PAA-8 + DBCH saved after deletes,
  so its ``config.json`` carries ``live_ids``;
* ``memory-sapla-par-wal`` — in-memory SAPLA-8 + DBCH (Dist_PAR) closed
  with inserts and a delete in its write-ahead log and no checkpoint, so
  opening it replays the log;
* ``sharded-sapla-par`` — a 2-shard SAPLA-8 + DBCH manifest (Dist_PAR).

The subscription home ``tests/continuous/homes/v1/home`` (PAA-8 + DBCH,
an un-checkpointed WAL tail) is the corpus's seventh member; its answers
to the same queries are pinned here too, read from a copy.

The rows are z-normalised random walks, step series and spike trains, the
kind on which Dist_PAR dismisses true neighbours; the seed is one under
which it does so for a query of ``memory-sapla-par-dbch``, so that the
corpus pins what a sound bound must change.  The committed ``v1/``
was written at commit 8a63e23, and the script runs only there: later code
refuses the ``distance_mode`` it passes a ``DiskBackedDatabase`` and
builds SAPLA homes under Dist_LB.  ``v1/`` is never regenerated — a later
format gets its own directory beside it.

    git checkout 8a63e23 && PYTHONPATH=src python tests/io/homes/write_v1.py tests/io/homes/v1
"""
import json
import pathlib
import shutil
import sys

import numpy as np

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import DistanceMode
from repro.lifecycle import DurabilityOptions, FsyncPolicy
from repro.reduction import PAA, SAPLAReducer
from repro.serving import MANIFEST_FILENAME, ShardedEngine
from repro.storage import DiskBackedDatabase

ROWS, LENGTH, K = 36, 64, 4
CONTINUOUS_HOME = pathlib.Path(__file__).parents[2] / "continuous" / "homes" / "v1" / "home"
COUNTERS = ("n_verified", "n_total", "nodes_visited", "n_candidates", "node_pushes", "heap_pushes")


def rows(rng, n, length):
    """z-normalised thirds: random walks, step series, spike trains."""
    third = n // 3
    walks = rng.normal(size=(third, length)).cumsum(axis=1)
    steps = np.repeat(rng.normal(size=(third, 8)) * 3, length // 8, axis=1)
    steps += rng.normal(scale=0.2, size=steps.shape)
    spikes = rng.normal(scale=0.3, size=(n - 2 * third, length))
    for row in spikes:
        row[rng.integers(0, length, size=3)] += rng.choice([-6.0, 6.0], size=3)
    data = np.vstack([walks, steps, spikes])
    return (data - data.mean(axis=1, keepdims=True)) / data.std(axis=1, keepdims=True)


def answers(target, queries):
    """Each query's ids, distances and counters, one query per call."""
    out = []
    for query in queries:
        result = target.knn_batch(query[None, :], QueryOptions(k=K)).results[0]
        pinned = {"ids": [int(i) for i in result.ids], "distances": [float(d) for d in result.distances]}
        pinned.update({name: int(getattr(result, name)) for name in COUNTERS})
        out.append(pinned)
    return out


def main(out):
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rng = np.random.default_rng(1)
    data = rows(rng, ROWS, LENGTH)
    extra = rows(rng, 6, LENGTH)
    picks = rng.choice(ROWS, size=8, replace=False)
    queries = data[picks] + rng.normal(scale=0.3, size=(8, LENGTH))

    db = SeriesDatabase(SAPLAReducer(8))
    db.ingest(data)
    db.save(out / "memory-sapla-par-dbch")

    build = out / "build.bin"
    db = DiskBackedDatabase(SAPLAReducer(8), build, index=None, distance_mode=DistanceMode.LB, page_size=512)
    db.ingest(data)
    db.save(out / "disk-sapla-lb-scan")
    build.unlink()

    db = SeriesDatabase(PAA(8))
    db.ingest(data)
    db.save(out / "memory-paa-dbch")

    db = DiskBackedDatabase(PAA(8), build, page_size=512)
    db.ingest(data)
    for sid in (1, 7, 20, 35):
        db.delete(sid)
    db.save(out / "disk-paa-deletes")
    build.unlink()

    home = out / "memory-sapla-par-wal"
    db = SeriesDatabase(SAPLAReducer(8))
    db.ingest(data[:30])
    db.save(home)
    db = open_database(home, durability=DurabilityOptions(fsync=FsyncPolicy.ALWAYS))
    db.insert_batch(data[30:])
    db.insert(extra[0])
    db.delete(3)
    db.wal.close()

    db = SeriesDatabase(SAPLAReducer(8))
    db.ingest(data)
    ShardedEngine.from_database(db, 2).save(out / "sharded-sapla-par")

    homes = {home.name: answers_from_copy(home, queries, out) for home in sorted(out.iterdir())}
    # the continuous home holds 32-long rows: the queries' first 32 points
    homes["continuous-v1"] = answers_from_copy(CONTINUOUS_HOME, queries[:, :32], out)

    expected = {"k": K, "queries": queries.tolist(), "homes": homes}
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(sorted(p.name for p in out.iterdir()))


def answers_from_copy(home, queries, out):
    """:func:`answers` as the home reads: on a reopened throwaway copy (a
    reopen packs its tree in bulk, and replaying a write-ahead log must
    never touch ``home``)."""
    copy = out.parent / f"{out.name}-copy"
    shutil.copytree(home, copy)
    if (copy / MANIFEST_FILENAME).exists():
        engine = ShardedEngine.open(copy)
        pinned = answers(engine, queries)
        engine.close()
    else:
        db = open_database(copy)
        pinned = answers(db, queries)
        if db.wal is not None:
            db.wal.close()
    shutil.rmtree(copy)
    return pinned


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
