"""The pruning family's Dist_PAR columns: a scan outside the engine.

No database answers with Dist_PAR any more, so :func:`dist_par_scan`
carries the as-published bound for the ``par_*`` metrics of the
``pruning`` family.  Its ids and verification counts are pinned to what
a SAPLA-8 scan gave while Dist_PAR was still a database query bound
(commit 8a63e23, ``distance_mode="par"``, ``k = 4``), on the rows of the
default-bound regression test, seed 3.
"""

import numpy as np
import pytest

from repro.experiments.workloads import dist_par_scan
from repro.index import SeriesDatabase
from repro.reduction import SAPLAReducer
from tests.client.test_default_bound import _rows

pytestmark = pytest.mark.experiments

#: (ids, n_verified) per query of seed 3
PINNED = [
    ([6, 47, 25, 20], 10), ([84, 95, 65, 93], 96), ([35, 63, 48, 52], 53),
    ([8, 24, 26, 6], 44), ([86, 28, 78, 36], 96), ([71, 75, 56, 12], 96),
    ([55, 31, 2, 7], 22), ([88, 69, 72, 31], 96), ([41, 49, 60, 39], 29),
    ([72, 95, 69, 21], 92), ([0, 53, 39, 6], 69), ([28, 30, 57, 21], 54),
    ([53, 36, 0, 47], 54), ([9, 20, 23, 47], 14), ([80, 70, 66, 41], 96),
    ([7, 2, 18, 23], 9), ([22, 3, 51, 37], 41), ([14, 2, 7, 55], 49),
    ([89, 82, 69, 74], 96), ([61, 36, 53, 40], 68),
]


def test_scan_repeats_the_published_bound_walk():
    data, queries = _rows(3)
    db = SeriesDatabase(SAPLAReducer(8), index=None)
    db.ingest(data)
    got = []
    for query in queries:
        result = dist_par_scan(db, query, 4)
        truth = np.linalg.norm(np.asarray(db.data)[result.ids] - query, axis=1)
        assert result.distances == truth.tolist()
        assert result.n_total == len(data)
        got.append((result.ids, result.n_verified))
    assert got == PINNED
