"""The bound cascade's dominance, caching and accounting contracts.

Everything the search paths rely on lives here: every cheap tier value is
``<=`` the exact bound it fronts *as floating point* (deflation absorbs the
cross-route rounding drift), the vectorised tier equals the scalar one, the
build-time pairwise accelerator never overshoots the suite's pairwise
distance, and unsupported methods (SAX MINDIST) report themselves out
cleanly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.distance.cascade import (
    BoundCascade,
    PairwiseAccel,
    make_pairwise_accel,
    reconstruction_norm,
)
from repro.index import SeriesDatabase
from repro.engine import ExecutionMode, QueryOptions
from repro.kinds import IndexKind
from repro.reduction import REDUCERS
from tests.stored_modes import with_stored_mode

#: (reducer name, stored ``distance_mode``, the tier the cascade runs): one
#: config per cheap-tier formula, plus SAPLA reopened from homes that
#: stored Dist_PAR or Dist_AE (see :mod:`tests.stored_modes`), which must
#: run the Dist_LB tier as well.
TIERS = [
    ("SAPLA-par", "SAPLA", "par", "lb"),
    ("SAPLA-lb", "SAPLA", "lb", "lb"),
    ("SAPLA-ae", "SAPLA", "ae", "lb"),
    ("PAA-aligned", "PAA", "lb", "aligned"),
    ("CHEBY-triangle", "CHEBY", "lb", "triangle"),
]

TIER_CONFIGS = [pytest.param(*config, id=label) for label, *config in TIERS]


def dataset(count=20, n=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


def build(name, data, mode="lb", index=None):
    db = SeriesDatabase(REDUCERS[name](8), index=index)
    db.ingest(data)
    return with_stored_mode(db, mode)


class TestReconstructionNorm:
    @pytest.mark.parametrize("name", ["SAPLA", "APLA", "APCA", "PAA", "PLA", "CHEBY"])
    def test_matches_reconstruction(self, name):
        reducer = REDUCERS[name](8)
        for i, series in enumerate(dataset(6, seed=4)):
            rep = reducer.transform(series)
            expected = np.linalg.norm(np.asarray(reducer.reconstruct(rep), dtype=float))
            assert reconstruction_norm(rep, reducer) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            ), f"row {i}"

    def test_cached_on_the_representation(self):
        reducer = REDUCERS["SAPLA"](8)
        rep = reducer.transform(dataset(1)[0])
        first = reconstruction_norm(rep, reducer)
        assert rep._cascade_norm == first
        rep._cascade_norm = 123.0  # poke the cache to prove it is consulted
        assert reconstruction_norm(rep, reducer) == 123.0


class TestDominance:
    @pytest.mark.parametrize("name,mode,suite_mode", TIER_CONFIGS)
    def test_cheap_never_exceeds_refine(self, name, mode, suite_mode):
        data = dataset(seed=1)
        db = build(name, data, mode)
        cascade = db.cascade()
        assert cascade.supported
        assert cascade.mode == suite_mode
        for qi in (0, 7):
            query = data[qi] + 0.25
            ctx = db.query_context(query)
            qc = cascade.for_query(ctx)
            assert qc is not None
            for entry in db.entries:
                rep = entry.representation
                assert qc.cheap(rep) <= qc.refine(rep)

    @pytest.mark.parametrize("name,mode,suite_mode", TIER_CONFIGS)
    def test_refine_equals_suite_bound(self, name, mode, suite_mode):
        """Refinement is the suite's own bound — same value, not an analogue."""
        data = dataset(seed=6)
        db = build(name, data, mode)
        ctx = db.query_context(data[3] - 0.1)
        qc = db.cascade().for_query(ctx)
        for entry in db.entries:
            rep = entry.representation
            assert qc.refine(rep) == db.suite.query_bound(ctx, rep)

    @pytest.mark.parametrize("name,mode,suite_mode", TIER_CONFIGS)
    def test_vectorised_keys_equal_scalar_cheap(self, name, mode, suite_mode):
        data = dataset(seed=2)
        db = build(name, data, mode)
        cascade = db.cascade()
        ctx = db.query_context(data[5] + 0.5)
        collection = cascade.collection(db)
        keys = cascade.for_query(ctx).cheap_keys(collection)
        scalar = cascade.for_query(ctx)
        by_sid = {e.series_id: e.representation for e in db.entries}
        for sid, key in zip(collection.sids.tolist(), keys.tolist()):
            assert key == scalar.cheap(by_sid[sid])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_random_dominance_all_tiers(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 32)).cumsum(axis=1)
        query = rng.normal(size=32).cumsum()
        for _, name, mode, _ in TIERS:
            db = build(name, data, mode)
            ctx = db.query_context(query)
            qc = db.cascade().for_query(ctx)
            for entry in db.entries:
                rep = entry.representation
                assert qc.cheap(rep) <= qc.refine(rep)


class TestPairwiseAccel:
    @pytest.mark.parametrize("name,mode,suite_mode", TIER_CONFIGS)
    def test_lower_never_exceeds_pairwise(self, name, mode, suite_mode):
        data = dataset(count=10, seed=5)
        db = build(name, data, mode)
        accel = make_pairwise_accel(db.suite, db.reducer)
        assert accel is not None
        reps = [e.representation for e in db.entries]
        for a in reps[:5]:
            for b in reps[5:]:
                assert accel.lower(a, b) <= db.suite.pairwise(a, b)

    def test_metric_flag_tracks_reconstruction_modes(self):
        data = dataset(count=6)
        recon = build("SAPLA", data)
        cheby = build("CHEBY", data)
        assert make_pairwise_accel(recon.suite, recon.reducer).metric is True
        assert make_pairwise_accel(cheby.suite, cheby.reducer).metric is False

    def test_certainly_not_above_requires_a_margin(self):
        assert PairwiseAccel.certainly_not_above(1.0, 2.0)
        assert not PairwiseAccel.certainly_not_above(2.0, 2.0)
        assert not PairwiseAccel.certainly_not_above(3.0, 2.0)


class TestUnsupportedModes:
    def test_sax_has_no_cascade(self):
        data = dataset()
        db = build("SAX", data)
        cascade = db.cascade()
        assert not cascade.supported
        assert cascade.for_query(db.query_context(data[0])) is None
        assert cascade.collection(db) is None
        assert make_pairwise_accel(db.suite, db.reducer) is None

    def test_sax_searches_still_answer(self):
        data = dataset()
        db = build("SAX", data, index=IndexKind.DBCH)
        result = db.knn(data[2] + 0.05, 3)
        assert len(result.ids) == 3


class TestAccounting:
    def test_search_emits_cascade_counters(self):
        # the sequential baseline bounds entries one by one: the cascade
        data = dataset(count=40, seed=7)
        sequential = QueryOptions(k=4, mode=ExecutionMode.SEQUENTIAL)
        with obs.capture() as session:
            db = build("SAPLA", data, index=IndexKind.DBCH)
            for i in range(3):
                db.knn_batch(data[i : i + 1] + 0.1, sequential)
        counters = session.report().counters
        assert counters["cascade.queries"] == 3
        assert counters["cascade.cheap_bounds"] >= counters["cascade.refines"]
        assert counters["cascade.cheap_bounds"] > 0
        assert "cascade.pairwise_skipped" in counters  # DBCH build used the accel

    def test_collection_cache_reused_within_a_generation(self):
        data = dataset()
        db = build("SAPLA", data)
        cascade = db.cascade()
        first = cascade.collection(db)
        assert cascade.collection(db) is first
