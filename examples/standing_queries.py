"""Standing k-NN and range queries over a collection that keeps growing.

A monitoring service registers two questions once — "which three stored
series are closest to this reference?" and "which lie within this radius
of it?" — and is told whenever an insert or a delete changes the answer,
instead of re-running the query after every write.  Each notification
carries the current frontier plus the ids that entered or left it, and
the maintained answer stays identical to a fresh one-shot query.

Run with ``python examples/standing_queries.py``.
"""

import numpy as np

from repro.client import KnnRequest, connect
from repro.continuous import KnnWatch, RangeWatch
from repro.index import SeriesDatabase
from repro.reduction import PAA


def show(note):
    change = f"+{list(note.added)} -{list(note.removed)}"
    print(
        f"  {note.kind:>5} seq {note.seq}{' (full)' if note.full else ''}: "
        f"ids {list(note.ids)}  {change}"
    )


def main():
    rng = np.random.default_rng(4)
    collection = rng.normal(size=(200, 128)).cumsum(axis=1)
    reference = collection[17] + rng.normal(scale=0.3, size=128)
    db = SeriesDatabase(PAA(16), index="dbch")
    db.ingest(collection)
    print(f"{len(db)} series of length 128 stored\n")

    with connect(db) as client:
        # the range watch's radius admits the reference's five nearest series
        radius = client.knn(KnnRequest(queries=reference, k=5))[0].distances[-1]
        nearest = client.subscribe(KnnWatch(query=reference, k=3))
        around = client.subscribe(RangeWatch(query=reference, radius=radius))
        print("initial snapshots")
        show(nearest.next(timeout=1.0))
        show(around.next(timeout=1.0))

        print("\nstreaming inserts: two near the reference, one far away")
        for scale in (0.05, 0.1, None):
            row = reference + rng.normal(scale=scale, size=128) if scale else collection[3] + 50.0
            gid = client.insert(row)
            print(f" insert -> id {gid}")
            for subscription in (nearest, around):
                try:
                    show(subscription.next(timeout=0.01))
                except TimeoutError:
                    pass  # this watch's answer did not change

        closest = client.knn(KnnRequest(queries=reference, k=3))[0].ids[0]
        print(f"\ndelete id {closest} (a k-NN member: the watch re-runs)")
        client.delete(closest)
        knn_note, range_note = nearest.next(timeout=1.0), around.next(timeout=1.0)
        show(knn_note)
        show(range_note)

        scratch = client.knn(KnnRequest(queries=reference, k=3))[0]
        assert list(knn_note.ids) == scratch.ids
        print(f"\nmaintained top-3 {list(knn_note.ids)} == one-shot query {scratch.ids}")


if __name__ == "__main__":
    main()
