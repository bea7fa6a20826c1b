"""A default-configured SAPLA database answers exactly on every backend.

Dist_PAR is not a lower bound for adaptive layouts, and while it was the
default query bound these queries lost a true neighbour: z-normalised
random walks, step series and spike trains, SAPLA-8, near queries.  Each
backend — in memory, on disk pages, two shards, over TCP — is built with
no bound argument at all and must return the NumPy brute force.
"""

import numpy as np
import pytest

from repro.client import KnnRequest, connect
from repro.index import SeriesDatabase
from repro.reduction import SAPLAReducer
from repro.serving import ShardedEngine
from repro.storage import DiskBackedDatabase
from tests.client.test_facade import _ServerThread

ROWS, LENGTH, QUERIES = 96, 64, 20

#: (seed, query, k) that Dist_PAR answered inexactly on the scan and the DBCH-tree
CASES = [(3, 6, 1), (4, 16, 4), (9, 13, 4)]


def _rows(seed):
    """Rows and 20 near queries: z-normalised walks, steps and spikes."""
    rng = np.random.default_rng(seed)
    third = ROWS // 3
    walks = rng.normal(size=(third, LENGTH)).cumsum(axis=1)
    steps = np.repeat(rng.normal(size=(third, 8)) * 3, LENGTH // 8, axis=1)
    steps += rng.normal(scale=0.2, size=(third, LENGTH))
    spikes = rng.normal(scale=0.3, size=(ROWS - 2 * third, LENGTH))
    columns = rng.integers(0, LENGTH, size=(ROWS - 2 * third, 3))
    for row, cols in zip(spikes, columns):
        row[cols] += rng.choice([-6.0, 6.0], size=3)
    data = np.vstack([walks, steps, spikes])
    data = (data - data.mean(axis=1, keepdims=True)) / data.std(axis=1, keepdims=True)
    picks = rng.choice(ROWS, size=QUERIES, replace=False)
    return data, data[picks] + rng.normal(scale=0.3, size=(QUERIES, LENGTH))


def _default_db(data):
    db = SeriesDatabase(SAPLAReducer(8))
    db.ingest(data)
    return db


@pytest.mark.parametrize("seed,query,k", CASES)
@pytest.mark.parametrize("backend", ["memory", "disk", "sharded", "tcp"])
def test_default_sapla_answers_exactly(backend, seed, query, k, tmp_path):
    data, queries = _rows(seed)
    q = queries[query]
    truth = np.linalg.norm(data - q, axis=1)
    order = np.lexsort((np.arange(ROWS), truth))[:k]
    host = None
    if backend == "memory":
        target = _default_db(data)
    elif backend == "disk":
        target = DiskBackedDatabase(SAPLAReducer(8), tmp_path / "rows.bin")
        target.ingest(data)
    elif backend == "sharded":
        target = ShardedEngine.from_database(_default_db(data), 2)
    else:
        host = _ServerThread(_default_db(data))
        target = f"tcp://127.0.0.1:{host.port}"
    try:
        with connect(target) as client:
            (got,) = client.knn(KnnRequest(q[None, :], k=k))
    finally:
        if host is not None:
            host.stop()
    assert got.ids == order.tolist()
    assert got.distances == truth[order].tolist()
