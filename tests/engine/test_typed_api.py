"""The typed surface: IndexKind / DistanceMode enums and their string values.

Pins the contract: the enums' string values (what configs, manifests and
the CLI carry) convert through the enum constructors, unknown values fail
eagerly, and the enums serialise as their plain string values.
``DistanceMode`` keeps one member, ``LB``: a database accepts it or ``"lb"``
and refuses every other value, the retired ``"par"`` and ``"ae"`` included.
"""

import json

import numpy as np
import pytest

from repro.distance.suite import make_suite
from repro.index import SeriesDatabase
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import PAA, SAPLAReducer


class TestEnums:
    def test_members_compare_equal_to_their_strings(self):
        assert IndexKind.DBCH == "dbch"
        assert IndexKind.RTREE == "rtree"
        assert DistanceMode.LB == "lb"
        assert str(DistanceMode.LB) == "lb"
        assert list(DistanceMode) == [DistanceMode.LB]

    def test_json_round_trip_as_plain_strings(self):
        payload = json.dumps({"index": IndexKind.DBCH, "mode": DistanceMode.LB})
        assert json.loads(payload) == {"index": "dbch", "mode": "lb"}


class TestCoercion:
    def test_enums_and_their_values_normalise(self):
        def kind_of(index):
            return SeriesDatabase(SAPLAReducer(6), index=index).index_kind

        assert kind_of(IndexKind.RTREE) is IndexKind.RTREE
        assert kind_of("dbch") is IndexKind.DBCH
        assert kind_of(None) is None
        assert kind_of(IndexKind.NONE) is None
        assert kind_of("none") is None
        assert DistanceMode("lb") is DistanceMode.LB

    @pytest.mark.parametrize("value", ["kdtree", "", "DBCH "])
    def test_unknown_index_kind_raises(self, value):
        with pytest.raises(ValueError):
            SeriesDatabase(SAPLAReducer(6), index=value)

    @pytest.mark.parametrize("value", ["euclid", "", "PAR "])
    def test_unknown_distance_mode_raises(self, value):
        with pytest.raises(ValueError):
            SeriesDatabase(SAPLAReducer(6), distance_mode=value)


class TestDatabaseSurface:
    def test_string_values_behave_like_the_enums(self):
        data = np.random.default_rng(0).normal(size=(10, 32)).cumsum(axis=1)
        legacy = SeriesDatabase(SAPLAReducer(6), index="dbch", distance_mode="lb")
        typed = SeriesDatabase(
            SAPLAReducer(6), index=IndexKind.DBCH, distance_mode=DistanceMode.LB
        )
        legacy.ingest(data)
        typed.ingest(data)
        assert legacy.index_kind is IndexKind.DBCH
        assert legacy.knn(data[2] + 0.1, 3).ids == typed.knn(data[2] + 0.1, 3).ids

    def test_make_suite_validates_mode_eagerly(self):
        """The suite has one bound; a retired one is refused where the
        database is built, never mid-query."""
        for retired in ("par", "ae", "not-a-mode"):
            with pytest.raises(ValueError):
                SeriesDatabase(SAPLAReducer(8), distance_mode=retired)
        assert make_suite(SAPLAReducer(8)).mode == "lb"

    def test_aligned_suites_expose_the_batch_bound(self):
        suite = make_suite(PAA(6))
        assert suite.stack is not None
        assert suite.query_bound_batch is not None

    @pytest.mark.parametrize("mode", ["lb", "par"])
    def test_adaptive_suites_expose_the_batch_bound(self, mode):
        """Both kernels over the stacked layout: the Dist_LB query bound and
        the Dist_PAR pairwise distance."""
        suite = make_suite(SAPLAReducer(6))
        assert suite.stack is not None
        if mode == "lb":
            assert suite.query_bound_batch is not None
        else:
            assert suite.pairwise_batch is not None
