"""Fig. 13 — pruning power (13a) and accuracy (13b), R-tree vs DBCH-tree.

Paper shape: the adaptive-length methods gain the most from the DBCH-tree
(their APCA-style MBRs overlap in the R-tree); equal-length methods behave
similarly under both indexes.
"""

from repro.bench import summarise_pruning_accuracy
from repro.index import SeriesDatabase
from repro.reduction import SAPLAReducer

from conftest import publish_table

ADAPTIVE = ("SAPLA", "APLA", "APCA")
EQUAL = ("PLA", "PAA", "SAX")


def test_fig13_pruning_and_accuracy(benchmark, config, index_grid):
    rows = summarise_pruning_accuracy(index_grid)
    publish_table("fig13_pruning_accuracy", "Fig 13 — pruning power & accuracy", rows)
    by = {(r["method"], r["index"]): r for r in rows}

    # adaptive methods: DBCH accuracy at least matches the R-tree's
    for method in ADAPTIVE:
        assert by[(method, "dbch")]["accuracy"] >= by[(method, "rtree")]["accuracy"] - 0.05
    # equal-length methods change little between the two indexes
    for method in EQUAL:
        assert abs(
            by[(method, "dbch")]["pruning_power"] - by[(method, "rtree")]["pruning_power"]
        ) <= 0.3
    # every pruning power is a valid fraction
    for row in rows:
        assert 0.0 <= row["pruning_power"] <= 1.0
        assert 0.0 <= row["accuracy"] <= 1.0

    # benchmark kernel: one DBCH k-NN query
    dataset = next(config.datasets())
    db = SeriesDatabase(SAPLAReducer(config.coefficients[0]), index="dbch")
    db.ingest(dataset.data)
    benchmark(db.knn, dataset.queries[0], config.ks[0])
