"""Focused tests of k-NN engine internals and distance-mode effects."""

import numpy as np
import pytest

from repro.experiments.workloads import dist_par_scan
from repro.distance import dist_ae
from repro.index import KNNResult, SeriesDatabase
from repro.index.knn import TopK
from repro.reduction import SAPLAReducer


def dataset(count=40, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


class TestNodesVisited:
    def test_tree_search_reports_visits(self):
        db = SeriesDatabase(SAPLAReducer(12), index="dbch")
        db.ingest(dataset())
        result = db.knn(dataset()[0], 3)
        assert result.nodes_visited >= 1

    def test_filtered_scan_reports_zero_visits(self):
        db = SeriesDatabase(SAPLAReducer(12), index=None)
        db.ingest(dataset(seed=1))
        result = db.knn(dataset(seed=1)[0], 3)
        assert result.nodes_visited == 0


class TestDistanceModes:
    """The paper's other adaptive measures, beside the database's Dist_LB."""

    def test_ae_mode_can_lose_neighbours(self):
        """Dist_AE overestimates near-duplicates, so a scan filtered by it
        can skip the true nearest neighbour — the failure Fig. 10 warns
        about — while the database's Dist_LB scan stays exact."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(30, 64)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(12), index=None)
        db.ingest(base)
        accs_ae, accs_lb = [], []
        for i in range(6):
            query = base[i] + rng.normal(scale=0.02, size=64)
            truth = db.ground_truth(query, 3)
            bounds = [dist_ae(query, e.representation) for e in db.entries]
            best = TopK(3)
            for sid in np.lexsort((np.arange(len(bounds)), bounds)):
                if best.full and bounds[sid] > best.threshold:
                    break
                best.offer(float(np.linalg.norm(base[sid] - query)), int(sid))
            found = KNNResult([sid for _, sid in best.ranked()], [], 0, len(base))
            accs_ae.append(found.accuracy_against(truth))
            accs_lb.append(db.knn(query, 3).accuracy_against(truth))
        assert np.mean(accs_lb) == 1.0
        assert np.mean(accs_lb) >= np.mean(accs_ae)

    def test_par_mode_prunes_at_least_as_well_as_lb(self):
        """The as-published Dist_PAR, scanned by the ablation's helper,
        verifies no more than the database's Dist_LB scan (plus slack)."""
        data = dataset(count=60, seed=3)
        db = SeriesDatabase(SAPLAReducer(12), index=None)
        db.ingest(data)
        queries = [data[i] + 0.05 for i in range(5)]
        par = np.mean([dist_par_scan(db, q, 3).pruning_power for q in queries])
        lb = np.mean([db.knn(q, 3).pruning_power for q in queries])
        assert par <= lb + 0.1


class TestEdgeCases:
    def test_k_zero_rejected(self):
        db = SeriesDatabase(SAPLAReducer(12), index="dbch")
        db.ingest(dataset(seed=4))
        with pytest.raises(ValueError):
            db.knn(dataset(seed=4)[0], 0)

    def test_duplicate_series_all_retrievable(self):
        data = np.tile(dataset(count=1, seed=5), (6, 1))
        db = SeriesDatabase(SAPLAReducer(12), index="dbch")
        db.ingest(data)
        result = db.knn(data[0], 6)
        assert sorted(result.ids) == list(range(6))
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in result.distances)
