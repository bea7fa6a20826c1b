"""The typed query surface: QueryOptions validation and BatchResult shape."""

import dataclasses

import pytest

from repro.engine import BatchResult, ExecutionMode, QueryOptions
from repro.index import KNNResult


class TestQueryOptions:
    def test_defaults(self):
        options = QueryOptions()
        assert options.k == 1
        assert options.mode is ExecutionMode.AUTO
        assert options.deadline_s is None
        assert options.lookahead == 1
        assert options.cascade is True

    def test_mode_accepts_enum_and_value_strings(self):
        assert QueryOptions(mode=ExecutionMode.SEQUENTIAL).mode is ExecutionMode.SEQUENTIAL
        assert QueryOptions(mode="vectorized").mode is ExecutionMode.VECTORIZED

    def test_unknown_mode_rejected_eagerly(self):
        with pytest.raises(ValueError):
            QueryOptions(mode="turbo")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": -3},
            {"lookahead": -1},
            {"lookahead": 0},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QueryOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"parallelism": 2}, {"early_abandon": False}])
    def test_retired_fields_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            QueryOptions(**kwargs)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(QueryOptions)] == [
            "k", "mode", "deadline_s", "lookahead", "cascade"
        ]

    def test_frozen(self):
        options = QueryOptions(k=3)
        with pytest.raises(Exception):
            options.k = 5


class TestBatchResult:
    def test_aggregates(self):
        results = [
            KNNResult(ids=[0], distances=[0.0], n_verified=2, n_total=10),
            KNNResult(ids=[1], distances=[1.0], n_verified=4, n_total=10),
        ]
        batch = BatchResult(results=results)
        assert batch.n_queries == 2
        assert batch.total_verified == 6
        assert batch.pruning_power == pytest.approx(6 / 20)

    def test_empty_pruning_power_is_zero(self):
        assert BatchResult(results=[]).pruning_power == 0.0


class TestExecutionMode:
    def test_values_are_strings(self):
        assert ExecutionMode.AUTO == "auto"
        assert str(ExecutionMode.SEQUENTIAL) == "sequential"
