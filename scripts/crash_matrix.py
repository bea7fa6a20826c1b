"""Crash-matrix smoke: SIGKILL an ingesting subprocess, verify recovery.

Seeds a database directory of each row-store kind (the test suite's own
``seed_directory`` helper), then for each kill point forks a child that
opens the directory durably (``FsyncPolicy.ALWAYS``) and streams inserts,
killing it with SIGKILL after N acknowledged inserts.  After every kill the
directory is reopened and checked:

* every acknowledged insert survived (zero lost committed records);
* ids are contiguous with no duplicates;
* k-NN answers match a cleanly built database bit-for-bit.

Run from the repo root (used by ``make crash-matrix``):

    python scripts/crash_matrix.py [--kills 3] [--series 1000] [--seed 7]

Exit status 0 = every kill point recovered cleanly, 1 = any property
violated.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.engine.states import gather_rows  # noqa: E402
from repro.index import SeriesDatabase  # noqa: E402
from repro.io import open_database  # noqa: E402
from repro.kinds import IndexKind  # noqa: E402
from repro.reduction import PAA  # noqa: E402
from tests.lifecycle.test_crash_recovery import KINDS, LENGTH, seed_directory  # noqa: E402

CHILD_SEED = 20220329  # the paper's conference year + date, fixed forever

CHILD_SCRIPT = textwrap.dedent(
    f"""
    import sys
    import numpy as np
    from repro.io import open_database
    from repro.lifecycle import DurabilityOptions, FsyncPolicy

    directory, total = sys.argv[1], int(sys.argv[2])
    db = open_database(
        directory, durability=DurabilityOptions(fsync=FsyncPolicy.ALWAYS)
    )
    rng = np.random.default_rng({CHILD_SEED})
    for _ in range(total):
        sid = db.insert(rng.normal(size={LENGTH}))
        print(sid, flush=True)
    """
)


def kill_child_after(directory: pathlib.Path, acks: int, total: int) -> "list[int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(directory), str(total)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    acked: "list[int]" = []
    try:
        for line in child.stdout:
            acked.append(int(line))
            if len(acked) >= acks:
                os.kill(child.pid, signal.SIGKILL)
                break
    finally:
        child.stdout.close()
        child.wait()
    return acked


def verify(directory: pathlib.Path, acked: "list[int]") -> "list[str]":
    problems: "list[str]" = []
    db = open_database(directory)
    live = sorted(e.series_id for e in db.entries)
    if len(live) != len(set(live)):
        problems.append("duplicate series ids after recovery")
    if live != list(range(len(live))):
        problems.append(f"ids not contiguous after recovery: {live[:8]}...")
    lost = sorted(set(acked) - set(live))
    if lost:
        problems.append(f"lost {len(lost)} acknowledged insert(s): {lost[:8]}")
    clean = SeriesDatabase(PAA(n_coefficients=8), index=IndexKind.DBCH)
    clean.ingest(gather_rows(db.data, live))
    rng = np.random.default_rng(99)
    for q in rng.normal(size=(3, LENGTH)):
        a, b = db.knn(q, 5), clean.knn(q, 5)
        if a.ids != b.ids or a.distances != b.distances:
            problems.append("recovered k-NN differs from a cleanly built database")
            break
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kills", type=int, default=3, help="kill points to test")
    parser.add_argument("--series", type=int, default=1000, help="child insert budget")
    parser.add_argument("--seed", type=int, default=7, help="kill-point RNG seed")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    kill_points = sorted(int(k) for k in rng.integers(1, max(args.series // 2, 2), args.kills))
    failures = 0
    runs = [(kind, point) for point in kill_points for kind in KINDS]
    for kind, point in runs:
        with tempfile.TemporaryDirectory(prefix="crash-matrix-") as tmp:
            directory = pathlib.Path(tmp)
            seed_directory(directory, kind)
            acked = kill_child_after(directory, point, args.series)
            problems = verify(directory, acked)
        if problems:
            failures += 1
            print(f"FAIL {kind} kill after {point} acks:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(
                f"ok   {kind:>6} kill after {point:>4} acks: "
                f"{len(acked)} acknowledged, all recovered"
            )
    if failures:
        print(f"{failures}/{len(runs)} run(s) failed")
        return 1
    print(f"crash matrix clean: {len(runs)} run(s), zero lost records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
