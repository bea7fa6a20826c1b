"""The typed surface: IndexKind / DistanceMode enums and string deprecation.

Pins the compatibility contract: legacy string arguments keep working but
emit ``DeprecationWarning``, unknown values fail eagerly, and the enums
serialise as their plain string values.
"""

import json
import warnings

import numpy as np
import pytest

from repro.distance.suite import make_suite
from repro.index import SeriesDatabase
from repro.kinds import (
    DistanceMode,
    IndexKind,
    coerce_distance_mode,
    coerce_index_kind,
)
from repro.reduction import PAA, SAPLAReducer


class TestEnums:
    def test_members_compare_equal_to_their_strings(self):
        assert IndexKind.DBCH == "dbch"
        assert IndexKind.RTREE == "rtree"
        assert DistanceMode.LB == "lb"
        assert str(DistanceMode.PAR) == "par"

    def test_json_round_trip_as_plain_strings(self):
        payload = json.dumps({"index": IndexKind.DBCH, "mode": DistanceMode.AE})
        assert json.loads(payload) == {"index": "dbch", "mode": "ae"}


class TestCoercion:
    def test_enum_values_pass_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coerce_index_kind(IndexKind.RTREE) is IndexKind.RTREE
            assert coerce_index_kind(None) is None
            assert coerce_index_kind(IndexKind.NONE) is None
            assert coerce_distance_mode(DistanceMode.AE) is DistanceMode.AE

    def test_strings_coerce_with_deprecation_warning(self):
        with pytest.warns(DeprecationWarning):
            assert coerce_index_kind("dbch") is IndexKind.DBCH
        with pytest.warns(DeprecationWarning):
            assert coerce_distance_mode("lb") is DistanceMode.LB

    @pytest.mark.parametrize("value", ["kdtree", "", "DBCH "])
    def test_unknown_index_kind_raises(self, value):
        with pytest.raises(ValueError):
            coerce_index_kind(value)

    @pytest.mark.parametrize("value", ["euclid", "", "PAR "])
    def test_unknown_distance_mode_raises(self, value):
        with pytest.raises(ValueError):
            coerce_distance_mode(value)


class TestDatabaseSurface:
    def test_string_arguments_warn_but_behave(self):
        data = np.random.default_rng(0).normal(size=(10, 32)).cumsum(axis=1)
        with pytest.warns(DeprecationWarning):
            legacy = SeriesDatabase(SAPLAReducer(6), index="dbch", distance_mode="lb")
        typed = SeriesDatabase(
            SAPLAReducer(6), index=IndexKind.DBCH, distance_mode=DistanceMode.LB
        )
        legacy.ingest(data)
        typed.ingest(data)
        assert legacy.index_kind is IndexKind.DBCH
        assert legacy.knn(data[2] + 0.1, 3).ids == typed.knn(data[2] + 0.1, 3).ids

    def test_make_suite_validates_mode_eagerly(self):
        with pytest.raises(ValueError):
            make_suite(SAPLAReducer(6), "not-a-mode")

    def test_aligned_suites_expose_the_batch_bound(self):
        suite = make_suite(PAA(6))
        assert suite.stack is not None
        assert suite.query_bound_batch is not None

    @pytest.mark.parametrize("mode", [DistanceMode.LB, DistanceMode.PAR])
    def test_adaptive_suites_expose_the_batch_bound(self, mode):
        suite = make_suite(SAPLAReducer(6), mode)
        assert suite.stack is not None
        assert suite.query_bound_batch is not None

    def test_adaptive_ae_suite_keeps_only_the_scalar_bound(self):
        suite = make_suite(SAPLAReducer(6), DistanceMode.AE)
        assert suite.stack is None
        assert suite.query_bound_batch is None
