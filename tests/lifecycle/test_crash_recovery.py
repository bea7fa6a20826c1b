"""Kill -9 a process mid-ingest; recovery must lose nothing acknowledged.

The child opens a saved database (either row-store kind) with
``FsyncPolicy.ALWAYS`` and inserts a deterministic stream of series, printing each id the moment the insert call
returns (i.e. after the WAL record is fsynced).  The parent SIGKILLs it at
several points, reopens the directory, and asserts:

* every acknowledged insert survived (zero lost committed records);
* ids are contiguous with no duplicates;
* k-NN answers are bit-identical to a cleanly built database holding the
  same surviving rows.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.engine.states import gather_rows
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import IndexKind
from repro.reduction import PAA
from repro.storage import DiskBackedDatabase

LENGTH = 32
SEED_ROWS = 10
CHILD_SEED = 1234

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.io import open_database
    from repro.lifecycle import DurabilityOptions, FsyncPolicy

    directory, total = sys.argv[1], int(sys.argv[2])
    db = open_database(
        directory, durability=DurabilityOptions(fsync=FsyncPolicy.ALWAYS)
    )
    rng = np.random.default_rng({seed})
    for _ in range(total):
        sid = db.insert(rng.normal(size={length}))
        print(sid, flush=True)  # acknowledged: the WAL record is on disk
    """
).format(seed=CHILD_SEED, length=LENGTH)


KINDS = ("memory", "disk")


def seed_directory(tmp_path, kind="memory"):
    """A saved home of the given row-store kind (shared with
    ``scripts/crash_matrix.py``)."""
    rng = np.random.default_rng(0)
    if kind == "disk":
        db = DiskBackedDatabase(
            PAA(n_coefficients=8), tmp_path / "series.bin", index=IndexKind.DBCH
        )
    else:
        db = SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.DBCH)
    db.ingest(rng.normal(size=(SEED_ROWS, LENGTH)))
    db.save(tmp_path)
    return tmp_path


def run_child_and_kill_after(directory, acks_before_kill, total=200):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(directory), str(total)],
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("kill_after", [1, 17, 60])
def test_sigkill_mid_ingest_loses_nothing_acknowledged(tmp_path, kill_after, kind):
    seed_directory(tmp_path, kind)
    acked = run_child_and_kill_after(tmp_path, kill_after)
    assert len(acked) >= kill_after

    recovered = open_database(tmp_path)
    live = sorted(e.series_id for e in recovered.entries)
    # no duplicates, ids contiguous, and every acknowledged insert present
    assert len(live) == len(set(live))
    assert set(acked) <= set(live)
    assert live == list(range(live[-1] + 1))
    assert live[-1] >= acked[-1]

    # bit-identical answers vs a cleanly built database over the same rows
    clean = SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.DBCH)
    clean.ingest(gather_rows(recovered.data, live))
    rng = np.random.default_rng(99)
    for q in rng.normal(size=(5, LENGTH)):
        a = recovered.knn(q, 5)
        b = clean.knn(q, 5)
        assert a.ids == b.ids
        assert a.distances == b.distances


def test_double_recovery_is_idempotent(tmp_path):
    seed_directory(tmp_path)
    run_child_and_kill_after(tmp_path, 9)
    first = open_database(tmp_path)
    live_first = sorted(e.series_id for e in first.entries)
    # opening again without checkpointing replays the same WAL again
    second = open_database(tmp_path)
    live_second = sorted(e.series_id for e in second.entries)
    assert live_first == live_second
    assert len(live_second) == len(set(live_second))


def test_recovery_then_checkpoint_clears_the_log(tmp_path):
    from repro.lifecycle import WAL_FILENAME, checkpoint
    from repro.lifecycle.wal import MAGIC

    seed_directory(tmp_path)
    run_child_and_kill_after(tmp_path, 5)
    db = open_database(tmp_path)
    checkpoint(db)
    assert (tmp_path / WAL_FILENAME).read_bytes() == MAGIC
    reopened = open_database(tmp_path)
    assert sorted(e.series_id for e in reopened.entries) == sorted(
        e.series_id for e in db.entries
    )
