"""SIGKILL a sharded ingest; per-shard WAL recovery must lose nothing.

Mirrors tests/lifecycle/test_crash_recovery.py for the sharded layer: the
child opens a sharded home with ``FsyncPolicy.ALWAYS`` durability and
inserts through :class:`repro.serving.ShardedEngine` (each record fsynced
into its *shard's* WAL before the insert returns), printing every global
id it gets back.  The parent SIGKILLs it mid-stream, reopens the home, and
asserts the acknowledged prefix survived — including the cross-shard
torn-prefix repair, since the kill can land between two shards' appends —
and that queries over the recovered engine are bit-identical to a cleanly
built unsharded database over the same rows.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.index import SeriesDatabase
from repro.reduction import PAA
from repro.serving import ShardedEngine

LENGTH = 32
SEED_ROWS = 10
N_SHARDS = 3
CHILD_SEED = 4321

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.lifecycle import DurabilityOptions, FsyncPolicy
    from repro.serving import ShardedEngine

    home, total = sys.argv[1], int(sys.argv[2])
    engine = ShardedEngine.open(
        home, durability=DurabilityOptions(fsync=FsyncPolicy.ALWAYS)
    )
    rng = np.random.default_rng({seed})
    for _ in range(total):
        gid = engine.insert(rng.normal(size={length}))
        print(gid, flush=True)  # acknowledged: the shard's WAL record is on disk
    """
).format(seed=CHILD_SEED, length=LENGTH)


def seed_home(tmp_path):
    rng = np.random.default_rng(0)
    db = SeriesDatabase(PAA(8), index=None)
    db.ingest(rng.normal(size=(SEED_ROWS, LENGTH)))
    home = tmp_path / "home"
    ShardedEngine.from_database(db, N_SHARDS).save(home)
    return home


def run_child_and_kill_after(home, acks_before_kill, total=120):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(home), str(total)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    acked = []
    try:
        for line in child.stdout:
            acked.append(int(line))
            if len(acked) >= acks_before_kill:
                os.kill(child.pid, signal.SIGKILL)
                break
    finally:
        child.stdout.close()
        child.wait()
    return acked


@pytest.mark.parametrize("kill_after", [1, 14, 40])
def test_sigkill_mid_ingest_loses_nothing_acknowledged(tmp_path, kill_after):
    home = seed_home(tmp_path)
    acked = run_child_and_kill_after(home, kill_after)
    assert len(acked) >= kill_after

    recovered = ShardedEngine.open(home)
    count = recovered.count
    # the recovered prefix covers every acknowledged insert, ids contiguous
    assert count > acked[-1]
    assert set(acked) <= set(range(count))
    assert len(recovered) == count  # no deletes in this stream
    # shard counts form exactly the round-robin split of the prefix
    assert [s.count for s in recovered.shards] == [
        len(range(s, count, N_SHARDS)) for s in range(N_SHARDS)
    ]

    # bit-identical answers vs a cleanly built unsharded database over the
    # same surviving rows, reassembled in global id order
    rows = np.stack(
        [
            np.asarray(recovered.shards[g % N_SHARDS].data)[g // N_SHARDS]
            for g in range(count)
        ]
    )
    clean = SeriesDatabase(PAA(8), index=None)
    clean.ingest(rows)
    rng = np.random.default_rng(99)
    queries = rng.normal(size=(5, LENGTH))
    from repro.engine import QueryOptions

    a = recovered.knn_batch(queries, QueryOptions(k=5))
    b = clean.knn_batch(queries, QueryOptions(k=5))
    for ra, rb in zip(a.results, b.results):
        assert ra.ids == rb.ids
        assert ra.distances == rb.distances


def test_double_recovery_is_idempotent(tmp_path):
    home = seed_home(tmp_path)
    run_child_and_kill_after(home, 9)
    first = ShardedEngine.open(home)
    second = ShardedEngine.open(home)
    assert first.count == second.count
    assert [s.count for s in first.shards] == [s.count for s in second.shards]


def test_recovery_then_checkpoint_clears_the_logs(tmp_path):
    from repro.lifecycle import WAL_FILENAME
    from repro.lifecycle.wal import MAGIC

    home = seed_home(tmp_path)
    run_child_and_kill_after(home, 7)
    engine = ShardedEngine.open(home)
    count = engine.count
    engine.checkpoint()
    for s in range(N_SHARDS):
        wal = home / f"shard-{s:02d}" / WAL_FILENAME
        assert wal.read_bytes() == MAGIC
    reopened = ShardedEngine.open(home)
    assert reopened.count == count
