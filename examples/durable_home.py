"""A database home that survives its process: write-ahead log, reopen,
checkpoint.

An ingest service saves its collection once, then applies a stream of
inserts and deletes through the write-ahead log.  The process stops
without folding the log into the saved files; the next process reopens
the home, replays the log and answers exactly as before.  A checkpoint
then folds the log away.

Run with ``python examples/durable_home.py``.
"""

import pathlib
import tempfile

import numpy as np

from repro.client import KnnRequest, connect
from repro.index import SeriesDatabase
from repro.lifecycle import DurabilityOptions, FsyncPolicy, checkpoint
from repro.reduction import SAPLAReducer


def main():
    rng = np.random.default_rng(8)
    collection = rng.normal(size=(120, 128)).cumsum(axis=1)
    queries = collection[:4] + rng.normal(scale=0.2, size=(4, 128))

    with tempfile.TemporaryDirectory() as tmp:
        home = pathlib.Path(tmp) / "home"
        db = SeriesDatabase(SAPLAReducer(12), index="dbch")
        db.ingest(collection)
        db.save(home)
        print(f"saved {db.count} series to {home.name}/")

        durable = DurabilityOptions(fsync=FsyncPolicy.BATCH)
        with connect(home, durable) as client:
            for row in queries + rng.normal(scale=0.05, size=queries.shape):
                client.insert(row)  # logged before it is applied
            client.delete(0)
            before = client.knn(KnnRequest(queries=queries, k=3))
            wal = (home / "wal.log").stat().st_size
        print(f"4 inserts + 1 delete went to the log ({wal} bytes); closed without a checkpoint")

        with connect(home) as client:
            after = client.knn(KnnRequest(queries=queries, k=3))
            print(f"reopened: {len(client.database)} live series after replaying the log")
            for query, (old, new) in enumerate(zip(before, after)):
                assert old.ids == new.ids and old.distances == new.distances
                print(f"  query {query}: top-3 {new.ids} (same as before the restart)")
            report = checkpoint(client.database)
        print(
            f"checkpoint folded {report.wal_bytes_folded} log bytes into the saved "
            f"state ({report.live_count} live of {report.row_count} rows)"
        )


if __name__ == "__main__":
    main()
