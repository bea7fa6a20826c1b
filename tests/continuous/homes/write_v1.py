"""Write the ``v1`` subscription home that ``test_registry.py`` reopens.

A small durable disk home with a k-NN and a range subscription, closed
without a checkpoint, plus ``expected.json``: the acked state and the
notifications that resuming a copy of it (two inserts, one delete)
delivers.  The committed ``v1/`` was written at commit fef99ef, the last
whose subscribe records carried a ``from_row`` cursor; it is never
regenerated — a later format gets its own directory.

    PYTHONPATH=src python tests/continuous/homes/write_v1.py OUT_DIR
"""
import json
import pathlib
import shutil
import sys

import numpy as np

from repro.continuous import ContinuousEvaluator, KnnWatch, RangeWatch, SubscriptionRegistry
from repro.io import open_database
from repro.lifecycle import DurabilityOptions, FsyncPolicy
from repro.reduction import PAA
from repro.storage import DiskBackedDatabase

out = pathlib.Path(sys.argv[1])
shutil.rmtree(out, ignore_errors=True)
out.mkdir(parents=True)
home = out / "home"
always = DurabilityOptions(fsync=FsyncPolicy.ALWAYS)
rng = np.random.default_rng(7)
data = rng.normal(size=(24, 32)).cumsum(axis=1)
build = DiskBackedDatabase(PAA(8), out / "build.bin", page_size=1024)
build.ingest(data)
build.save(home)
(out / "build.bin").unlink()

db = open_database(home, durability=always)
registry = SubscriptionRegistry(home / "subscriptions.log", durability=always)
evaluator = ContinuousEvaluator(db, registry)
knn_query = data[0] + 0.01
range_query = data[5] + 0.01
radius = float(np.sort(np.linalg.norm(data - range_query, axis=1))[3]) + 0.05
evaluator.subscribe(KnnWatch(query=knn_query, k=3))
evaluator.subscribe(RangeWatch(query=range_query, radius=radius))
for step in range(4):
    evaluator.insert(knn_query + rng.normal(scale=0.05, size=32))
    evaluator.insert(range_query + rng.normal(scale=0.05, size=32))
evaluator.insert(rng.normal(size=32).cumsum() + 40.0)  # moves neither watch
knn_sid, range_sid = sorted(registry.subscriptions())
frontier = registry.get(knn_sid).state["ids"]
evaluator.delete(frontier[0])  # a k-NN member: a full re-run
evaluator.delete(registry.get(range_sid).state["ids"][-1])
acked = {sid: [st.seq, st.state] for sid, st in registry.subscriptions().items()}
registry.close()
del evaluator, db

# resume a copy: what reopening and two more mutations deliver
copy = out / "resume"
shutil.copytree(home, copy)
db = open_database(copy)
registry = SubscriptionRegistry(copy / "subscriptions.log")
evaluator = ContinuousEvaluator(db, registry)
notes = []
for sid in registry.subscriptions():
    evaluator.attach_sink(sid, notes.append)
assert evaluator.resync() == []
next_rows = np.stack([knn_query + 0.001, range_query + 0.002])
evaluator.insert_batch(next_rows)
next_delete = registry.get(knn_sid).state["ids"][0]
evaluator.delete(next_delete)
keys = ("subscription_id", "seq", "kind", "generation", "ids", "distances", "added", "removed", "full")
expected = {
    "acked": acked,
    "next_rows": next_rows.tolist(),
    "next_delete": int(next_delete),
    "notifications": [{k: n.to_payload()[k] for k in keys} for n in notes],
}
registry.close()
shutil.rmtree(copy)
(out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
print(len(notes), "notifications;", sorted(p.name for p in home.iterdir()))
