"""What every workload shares: sizes, timed loops, scratch homes, the server.

Importing this module puts the checkout's ``src/`` on ``sys.path`` (the
package is not installed), so workload modules import it before ``repro``.
"""

from __future__ import annotations

import os
import pathlib
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"  # git-ignored: traces, scratch homes, comparison inputs

if not (SRC / "repro").is_dir():
    sys.exit(f"perf: {SRC / 'repro'} not found — run from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Scale:
    """Collection sizes and fixed operation counts of one benchmark scale."""

    rows: int  # SAPLA collections: knn_scan, knn_tree, ingest_mixed base
    serve_rows: int  # the PAA collection behind serve_tcp
    length: int
    pool: int  # distinct queries cycled through by the timed loops
    setup_repeats: int  # set-ups per run; setup_s is their median
    trace_sample: int  # operations replayed per phase by the traced pass
    trace_load_requests: int  # pipelined requests of the traced load repeat
    k: int = 8
    coefficients: int = 12
    batch: int = 32  # queries per bulk Client.knn call
    shards: int = 2
    connections: int = 2  # load phase: sockets ...
    depth: int = 16  # ... times requests outstanding on each
    load_repeats: int = 5
    watches: int = 16
    read_every: int = 4  # ingest_mixed: one read after every 4th insert
    wal_batch: int = 64


#: The committed scale.  ISSUE 11 sized the SAPLA collections at 4096 rows;
#: reducing 4096 rows alone takes ~16 s here, and a run has to set up several
#: times and finish in about half a minute, so they are 1024 (see README).
FULL = Scale(
    rows=1024, serve_rows=4096, length=256, pool=256, setup_repeats=3,
    trace_sample=40, trace_load_requests=320,
)
SMOKE = Scale(
    rows=256, serve_rows=256, length=64, pool=64, setup_repeats=1,
    trace_sample=8, trace_load_requests=64,
)

WARMUP_SHARE = 0.05  # of each phase's time, untimed, before it


def run_for(seconds: float, operation: "Callable[[int], object]", minimum: int = 3):
    """Call ``operation(i)`` for ``i = 0, 1, ...`` until ``seconds`` have passed.

    Preceded by an untimed warm-up of :data:`WARMUP_SHARE` of the time (called
    with negative ``i``).  Returns ``(latencies_s, results)`` of the timed
    calls, so answers are checked afterwards, outside the timed region.
    """
    clock = time.perf_counter
    warm_until = clock() + seconds * WARMUP_SHARE
    warm = 0
    while warm < 1 or clock() < warm_until:
        warm += 1
        operation(-warm)
    latencies: "List[float]" = []
    results: list = []
    stop = clock() + seconds
    while len(latencies) < minimum or clock() < stop:
        start = clock()
        result = operation(len(latencies))
        latencies.append(clock() - start)
        results.append(result)
    return latencies, results


def timed(function, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children, in MB."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def directory_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in pathlib.Path(path).rglob("*") if f.is_file())


@contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``perf/out``, removed on every exit path."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{label}-{os.getpid()}-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


_LISTENING = re.compile(r" on \S+:(\d+) ")


class ServerProcess:
    """``python -m repro serve`` as a subprocess on a free port.

    Use as a context manager (or pair ``start()`` with ``stop()``): the
    process is stopped and waited for on every exit path.  ``report`` starts it with ``--report`` (observability on in
    the server), the only way to read its request histogram from outside.
    """

    def __init__(self, home: pathlib.Path, shards: int, report: "Optional[pathlib.Path]" = None):
        self.home = home
        self.shards = shards
        self.report = report
        self.port: "Optional[int]" = None
        self.startup_s = 0.0
        self._proc: "Optional[subprocess.Popen]" = None

    def start(self) -> "ServerProcess":
        command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--database", str(self.home), "--shards", str(self.shards), "--port", "0",
        ]
        if self.report is not None:
            command += ["--report", str(self.report)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            command, cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_listening(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start
        return self

    def _await_listening(self, timeout: float) -> int:
        # raw reads off the descriptor: a buffered readline could swallow the
        # listening line together with an earlier one and leave select waiting
        deadline = time.monotonic() + timeout
        descriptor = self._proc.stdout.fileno()
        seen = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([descriptor], [], [], 0.25)
            if ready:
                chunk = os.read(descriptor, 1 << 16)
                if not chunk:
                    break
                seen += chunk.decode("utf-8", "replace")
                match = _LISTENING.search(seen)
                if match:
                    return int(match.group(1))
            elif self._proc.poll() is not None:
                break
        raise RuntimeError("server did not start listening:\n" + seen[-2000:])

    @property
    def url(self) -> str:
        return f"tcp://127.0.0.1:{self.port}"

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            # SIGINT lets a --report server write its report; plain ones just die
            proc.send_signal(signal.SIGINT if self.report is not None else signal.SIGTERM)
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
