"""``transform_batch`` must be bit-identical to per-series ``transform``.

The write side (ingest, insert_batch, WAL replay, bulk load) batches every
reduction through :meth:`repro.reduction.Reducer.transform_batch`; its
contract is *bit* equality with the scalar path, not closeness, so a
database built either way answers every query identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import lockstep
from repro.core.sapla import SAPLA
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.lifecycle import DurabilityOptions, checkpoint
from repro.reduction import REDUCERS, SAPLAReducer, reduce_rows

REDUCER_NAMES = sorted(REDUCERS)
LENGTHS = (1, 2, 3, 7, 17, 64, 130)
BUDGETS = (4, 12, 24)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def _matrix(rng, count, n):
    return np.cumsum(rng.normal(size=(count, n)), axis=1)


def _rep_key(rep):
    """A bit-exact, cache-insensitive key for any representation."""
    segments = getattr(rep, "segments", None)
    if segments is not None:
        return tuple(
            (s.start, s.end, np.float64(s.a).tobytes(), np.float64(s.b).tobytes())
            for s in segments
        )
    coefficients = getattr(rep, "coefficients", None)
    if coefficients is not None:
        return np.asarray(coefficients, dtype=float).tobytes()
    symbols = getattr(rep, "symbols", None)
    if symbols is not None:
        return tuple(symbols)
    raise TypeError(f"no bit-exact key for {type(rep).__name__}")


class TestEquivalenceGrid:
    @pytest.mark.parametrize("name", REDUCER_NAMES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_bit_identical_across_lengths(self, name, budget):
        rng = np.random.default_rng(hash((name, budget)) % 2**32)
        reducer = REDUCERS[name](budget)
        for n in LENGTHS:
            matrix = _matrix(rng, 5, n)
            batch = reducer.transform_batch(matrix)
            for row, rep in zip(matrix, batch):
                assert _rep_key(rep) == _rep_key(reducer.transform(row)), (name, budget, n)

    @pytest.mark.parametrize("name", REDUCER_NAMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_on_arbitrary_values(self, name, data):
        rows = data.draw(
            st.lists(
                st.lists(finite, min_size=9, max_size=9),
                min_size=1,
                max_size=4,
            )
        )
        matrix = np.asarray(rows, dtype=float)
        reducer = REDUCERS[name](6)
        batch = reducer.transform_batch(matrix)
        for row, rep in zip(matrix, batch):
            assert _rep_key(rep) == _rep_key(reducer.transform(row))

    def test_single_point_series(self):
        matrix = np.array([[3.5], [-2.0]])
        for name in REDUCER_NAMES:
            reducer = REDUCERS[name](4)
            batch = reducer.transform_batch(matrix)
            for row, rep in zip(matrix, batch):
                assert _rep_key(rep) == _rep_key(reducer.transform(row)), name


class TestValidation:
    def test_rejects_1d(self):
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(np.zeros(8))

    def test_rejects_empty(self):
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(np.zeros((0, 8)))

    def test_rejects_non_finite(self):
        matrix = np.ones((2, 8))
        matrix[1, 3] = np.nan
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(matrix)


class TestObservability:
    def test_batch_counters(self):
        matrix = _matrix(np.random.default_rng(0), 6, 32)
        obs.set_registry(obs.MetricsRegistry(enabled=True))
        try:
            REDUCERS["PAA"](8).transform_batch(matrix)
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["reduce.batch_calls"] == 1
        assert counters["reduce.batch_rows"] == 6
        # PAA has a vectorised kernel: no scalar fallback recorded
        assert "reduce.scalar_fallback" not in counters

    def test_scalar_fallback_counted(self):
        matrix = _matrix(np.random.default_rng(0), 4, 32)
        obs.set_registry(obs.MetricsRegistry(enabled=True))
        try:
            REDUCERS["CHEBY"](8).transform_batch(matrix)
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["reduce.scalar_fallback"] == 4


class TestReduceRows:
    def test_duck_typed_reducer_falls_back(self):
        class Plain:
            def transform(self, row):
                return float(np.sum(row))

        matrix = np.arange(12, dtype=float).reshape(3, 4)
        assert reduce_rows(Plain(), matrix) == [6.0, 22.0, 38.0]

    def test_empty_matrix(self):
        assert reduce_rows(REDUCERS["PAA"](4), np.zeros((0, 8))) == []


class TestDatabaseEquivalence:
    """A bulk-built database answers queries identically to an incremental one."""

    @pytest.mark.parametrize("name", ("SAPLA", "PAA", "APCA"))
    def test_bulk_vs_incremental_knn_batch(self, name):
        rng = np.random.default_rng(9)
        data = _matrix(rng, 28, 48)
        queries = _matrix(rng, 4, 48)

        bulk_db = SeriesDatabase(REDUCERS[name](12), index="dbch")
        bulk_db.ingest(data, bulk=True)

        incremental = SeriesDatabase(REDUCERS[name](12), index="dbch")
        incremental.ingest(data[:1])
        for row in data[1:]:
            incremental.insert(row)
        incremental._flush_pending()

        bulk_results = bulk_db.knn_batch(queries)
        inc_results = incremental.knn_batch(queries)
        for a, b in zip(bulk_results.results, inc_results.results):
            assert a.ids == b.ids
            assert a.distances == b.distances

    def test_precomputed_batch_feeds_ingest(self):
        data = _matrix(np.random.default_rng(1), 20, 64)
        reducer = REDUCERS["PAA"](12)
        db = SeriesDatabase(reducer, index="dbch")
        db.ingest(data, representations=reducer.transform_batch(data))
        assert db.knn(data[3], 1).ids == [3]

    def test_insert_batch_matches_insert_loop(self):
        rng = np.random.default_rng(13)
        data = _matrix(rng, 16, 48)
        extra = _matrix(rng, 6, 48)

        loop_db = SeriesDatabase(REDUCERS["SAPLA"](12), index="dbch")
        loop_db.ingest(data)
        batch_db = SeriesDatabase(REDUCERS["SAPLA"](12), index="dbch")
        batch_db.ingest(data)

        loop_ids = [loop_db.insert(row) for row in extra]
        batch_ids = batch_db.insert_batch(extra)
        assert loop_ids == list(batch_ids)
        loop_db._flush_pending()
        batch_db._flush_pending()
        for e1, e2 in zip(loop_db.entries, batch_db.entries):
            assert e1.series_id == e2.series_id
            assert _rep_key(e1.representation) == _rep_key(e2.representation)


def _perf_shaped(seed, count, n):
    """z-normalised rows in equal thirds: random walk, two sinusoids plus
    noise, periodic spike train on a slow drift (the benchmark's families)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    third = count // 3
    walk = np.cumsum(rng.standard_normal((third, n)), axis=1)
    phase = rng.uniform(0.0, 2.0 * np.pi, (third, 2))
    seasonal = (
        np.sin(2.0 * np.pi * rng.uniform(1.0, 3.0, (third, 1)) * t / n + phase[:, :1])
        + rng.uniform(0.2, 0.8, (third, 1))
        * np.sin(2.0 * np.pi * rng.uniform(3.0, 6.0, (third, 1)) * t / n + phase[:, 1:])
        + 0.1 * rng.standard_normal((third, n))
    )
    period = rng.integers(max(n // 10, 2), max(n // 4, 3), (count - 2 * third, 1))
    spikes = ((t[None, :] + rng.integers(0, max(n // 10, 2), period.shape)) % period == 0)
    spikes = spikes * rng.uniform(0.75, 1.5, period.shape) + np.cumsum(
        rng.standard_normal((len(period), n)), axis=1
    ) * (3.0 / np.sqrt(n))
    rows = np.empty((count, n))
    rows[0::3], rows[1::3], rows[2::3] = spikes, walk, seasonal
    centred = rows - rows.mean(axis=1, keepdims=True)
    return centred / centred.std(axis=1, keepdims=True)


def _keys(reps):
    return [_rep_key(rep) for rep in reps]


def _assert_rows_match_transform(reducer, matrix):
    for i, (row, rep) in enumerate(zip(matrix, reducer.transform_batch(matrix))):
        assert _rep_key(rep) == _rep_key(reducer.transform(row)), (reducer, i)


class TestLockstepSAPLA:
    """The block kernel behind ``SAPLAReducer.transform_batch`` equals the
    scalar pipeline row for row, whatever else shares the block."""

    @pytest.mark.parametrize("budget", (12, 24))
    def test_perf_shaped_collection(self, budget):
        _assert_rows_match_transform(SAPLAReducer(budget), _perf_shaped(11, 516, 256))

    def test_block_composition_does_not_matter(self):
        matrix = _perf_shaped(5, 2 * lockstep._BLOCK_ROWS + 44, 96)
        reducer = SAPLAReducer(12)
        whole = _keys(reducer.transform_batch(matrix))  # straddles two block edges
        order = np.random.default_rng(3).permutation(len(matrix))
        shuffled = _keys(reducer.transform_batch(matrix[order]))
        assert [shuffled[i] for i in np.argsort(order)] == whole
        pieces, lo = [], 0
        for size in (1, 2, 7, lockstep._BLOCK_ROWS + 1, len(matrix)):
            pieces += _keys(reducer.transform_batch(matrix[lo : lo + size]))
            lo += size
        assert pieces == whole
        for i in (0, 57, len(matrix) - 1):
            assert whole[i] == _rep_key(reducer.transform(matrix[i]))

    @pytest.mark.parametrize("refine_endpoints", (True, False))
    @pytest.mark.parametrize("budget", (3, 6, 12, 24))
    def test_ties_and_ragged_termination(self, budget, refine_endpoints):
        rng = np.random.default_rng(budget)
        n = 48
        t = np.arange(n, dtype=float)
        walk = np.cumsum(rng.normal(size=n))
        rows = [
            np.zeros(n),  # every area and bound ties at zero
            np.full(n, 2.5),
            walk,
            walk,  # a duplicate shares the block with its twin
            0.25 * t - 3.0,  # an exact line: finishes every stage at once
            np.repeat([0.0, 4.0, -1.0, 4.0], n // 4),  # plateaus: equal bounds
            np.repeat([1.0, 1.0, 5.0, 5.0, 1.0, 1.0], n // 6),
            np.where(t % 8 == 0, 3.0, 0.0),  # periodic spikes: equal areas
            np.abs(t - n / 2),
            rng.normal(size=n),  # noise: the most initial segments to merge
            np.concatenate([np.zeros(n - 6), rng.normal(size=6)]),
        ]
        reducer = SAPLAReducer(budget, refine_endpoints=refine_endpoints)
        _assert_rows_match_transform(reducer, np.array(rows))

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 9))
    def test_short_rows_and_budgets_past_half_the_length(self, n):
        rng = np.random.default_rng(n)
        matrix = np.vstack([rng.normal(size=(6, n)), np.ones((1, n)), np.arange(n)[None, :]])
        for budget in (3, 6, 3 * ((n + 1) // 2), 3 * n, 3 * n + 9):
            for refine_endpoints in (True, False):
                reducer = SAPLAReducer(max(budget, 3), refine_endpoints=refine_endpoints)
                _assert_rows_match_transform(reducer, matrix)

    def test_served_configuration_never_enters_the_scalar_pipeline(self, monkeypatch):
        matrix = _matrix(np.random.default_rng(4), 5, 40)

        def scalar(self, series):
            raise AssertionError("SAPLA.transform called from transform_batch")

        monkeypatch.setattr(SAPLA, "transform", scalar)
        assert len(SAPLAReducer(12).transform_batch(matrix)) == 5
        assert len(SAPLAReducer(12, refine_endpoints=False).transform_batch(matrix[:2])) == 2
        with pytest.raises(AssertionError):
            SAPLAReducer(12, bound_mode="exact").transform_batch(matrix)

    def test_counters_match_the_row_loop(self):
        matrix = _perf_shaped(2, 30, 64)

        def counters_of(reduce):
            obs.set_registry(obs.MetricsRegistry(enabled=True))
            try:
                reduce()
                return obs.registry().snapshot()
            finally:
                obs.disable()

        reducer = SAPLAReducer(12)
        batch = counters_of(lambda: reducer.transform_batch(matrix))
        loop = counters_of(lambda: [reducer.transform(row) for row in matrix])
        assert "reduce.scalar_fallback" not in batch["counters"]
        for name, value in loop["counters"].items():
            assert batch["counters"][name] == value, name
        assert batch["histograms"]["sapla.segment_count"]["count"] == 30
        assert (
            batch["histograms"]["sapla.segment_count"]["sum"]
            == loop["histograms"]["sapla.segment_count"]["sum"]
        )
        exact = SAPLAReducer(12, bound_mode="exact")
        fallback = counters_of(lambda: exact.transform_batch(matrix[:4]))
        assert fallback["counters"]["reduce.scalar_fallback"] == 4


class TestDurableHomesAgree:
    def test_batch_loop_and_replay_write_the_same_representations(self, tmp_path):
        data = _perf_shaped(7, 24, 64)
        extra = _perf_shaped(8, 9, 64)

        def home(name):
            db = SeriesDatabase(SAPLAReducer(12))
            db.ingest(data)
            db.save(tmp_path / name)
            return open_database(tmp_path / name, durability=DurabilityOptions())

        batch = home("batch")
        batch.insert_batch(extra)
        loop = home("loop")
        for row in extra:
            loop.insert(row)
        home("replay").insert_batch(extra)  # logged, never checkpointed
        replayed = open_database(tmp_path / "replay")
        assert replayed.count == len(data) + len(extra)
        written = []
        for db in (batch, loop, replayed):
            checkpoint(db)
            written.append((db._home / "representations.json").read_bytes())
        assert written[0] == written[1] == written[2]
