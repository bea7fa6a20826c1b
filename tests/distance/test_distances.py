"""Tests for the distance measures, including the lower-bounding lemmas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import LinearSegmentation, Segment
from repro.distance import (
    aligned_distance,
    dist_ae,
    dist_lb,
    dist_par,
    dist_s,
    euclidean,
    euclidean_squared,
    project_onto_layout,
    triangle_lower_bound,
)
from repro.reduction import APCA, CHEBY, PAA, PLA, SAPLAReducer

rng = np.random.default_rng(17)


def random_pair(n=64, seed=0):
    r = np.random.default_rng(seed)
    q = r.normal(size=n).cumsum()
    c = r.normal(size=n).cumsum()
    return q, c


class TestEuclidean:
    def test_zero_for_identical(self):
        a = rng.normal(size=10)
        assert euclidean(a, a) == 0.0

    def test_known_value(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            euclidean(np.zeros(3), np.zeros(4))

    def test_squared_consistency(self):
        a, b = random_pair(seed=1)
        assert euclidean(a, b) ** 2 == pytest.approx(euclidean_squared(a, b))


class TestDistS:
    def test_matches_pointwise_sum(self):
        seg_q = Segment(0, 9, 0.5, 1.0)
        seg_c = Segment(0, 9, -0.2, 2.0)
        ref = float(np.sum((seg_q.reconstruct() - seg_c.reconstruct()) ** 2))
        assert dist_s(seg_q, seg_c) == pytest.approx(ref)

    def test_constant_segments(self):
        seg_q = Segment(0, 4, 0.0, 1.0)
        seg_c = Segment(0, 4, 0.0, 3.0)
        assert dist_s(seg_q, seg_c) == pytest.approx(5 * 4.0)

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dist_s(Segment(0, 4, 0, 0), Segment(0, 5, 0, 0))

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
        st.integers(min_value=1, max_value=50),
    )
    def test_eq12_closed_form_property(self, aq, bq, ac, bc, l):
        seg_q = Segment(0, l - 1, aq, bq)
        seg_c = Segment(0, l - 1, ac, bc)
        ref = float(np.sum((seg_q.reconstruct() - seg_c.reconstruct()) ** 2))
        assert dist_s(seg_q, seg_c) == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestDistPar:
    def test_equals_reconstruction_distance(self):
        q, c = random_pair(seed=2)
        rep_q = SAPLAReducer(12).transform(q)
        rep_c = SAPLAReducer(12).transform(c)
        ref = euclidean(rep_q.reconstruct(), rep_c.reconstruct())
        assert dist_par(rep_q, rep_c) == pytest.approx(ref, rel=1e-9)

    def test_symmetric(self):
        q, c = random_pair(seed=3)
        rep_q = SAPLAReducer(12).transform(q)
        rep_c = APCA(8).transform(c)
        assert dist_par(rep_q, rep_c) == pytest.approx(dist_par(rep_c, rep_q))

    def test_length_mismatch_rejected(self):
        rep_a = LinearSegmentation([Segment(0, 4, 0, 0)])
        rep_b = LinearSegmentation([Segment(0, 5, 0, 0)])
        with pytest.raises(ValueError):
            dist_par(rep_a, rep_b)

    @pytest.mark.parametrize("reducer", [SAPLAReducer(12), APCA(8), PLA(12), PAA(12)])
    def test_bit_identical_to_scalar_partition_route(self, reducer):
        """The lane-vectorised Dist_PAR equals partition + dist_s to the bit."""
        r = np.random.default_rng(11)
        for n in (7, 64, 130):
            rows = r.normal(size=(4, n)).cumsum(axis=1)
            reps = [reducer.transform(row) for row in rows]
            for rep_q in reps:
                for rep_c in reps:
                    union = sorted(
                        set(rep_q.right_endpoints) | set(rep_c.right_endpoints)
                    )
                    total = sum(
                        dist_s(sq, sc)
                        for sq, sc in zip(rep_q.partition(union), rep_c.partition(union))
                    )
                    ref = float(np.sqrt(max(total, 0.0)))
                    got = dist_par(rep_q, rep_c)
                    assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bounds_euclidean_in_practice(self, seed):
        """Dist_PAR <= Dist on typical data (the paper's lemma; see the
        documented caveat in dist_par's docstring)."""
        q, c = random_pair(n=128, seed=seed + 100)
        rep_q = SAPLAReducer(12).transform(q)
        rep_c = SAPLAReducer(12).transform(c)
        assert dist_par(rep_q, rep_c) <= euclidean(q, c) * 1.02 + 1e-9

    def test_documented_counterexample_identical_series(self):
        """Identical series with different layouts give Dist_PAR > 0 = Dist:
        the caveat recorded in the docstring and DESIGN.md."""
        series = np.array([0.0, 0.0, 1.0, 5.0, 2.0, 0.0])
        rep_a = LinearSegmentation([Segment(0, 2, 0.5, 0.0), Segment(3, 5, -2.5, 5.0)])
        rep_b = LinearSegmentation([Segment(0, 5, 0.4, 0.5)])
        assert dist_par(rep_a, rep_b) > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_tighter_than_dist_lb(self, seed):
        """Paper Sec. A.6: Dist_LB <= Dist_PAR (tightness).

        The inequality holds up to the same partition caveat documented on
        dist_par (restrictions are not sub-window refits), so individual
        pairs may disagree by a fraction of a percent."""
        q, c = random_pair(n=128, seed=seed + 200)
        rep_q = SAPLAReducer(12).transform(q)
        rep_c = SAPLAReducer(12).transform(c)
        assert dist_lb(q, rep_c) <= dist_par(rep_q, rep_c) * 1.01 + 1e-6

    def test_tighter_than_dist_lb_on_average(self):
        """Across many pairs, Dist_PAR approximates Dist more tightly than
        Dist_LB — the property the DBCH-tree exploits."""
        par_ratios, lb_ratios = [], []
        for seed in range(20):
            q, c = random_pair(n=128, seed=seed + 900)
            rep_q = SAPLAReducer(12).transform(q)
            rep_c = SAPLAReducer(12).transform(c)
            true = euclidean(q, c)
            par_ratios.append(dist_par(rep_q, rep_c) / true)
            lb_ratios.append(dist_lb(q, rep_c) / true)
        assert np.mean(par_ratios) >= np.mean(lb_ratios)


class TestDistLB:
    @pytest.mark.parametrize("seed", range(15))
    def test_unconditional_lower_bound(self, seed):
        """Dist_LB <= Dist always (projection argument)."""
        q, c = random_pair(n=96, seed=seed + 300)
        for reducer in (SAPLAReducer(12), APCA(8), PLA(8)):
            rep_c = reducer.transform(c)
            assert dist_lb(q, rep_c) <= euclidean(q, c) + 1e-9

    def test_projection_layout_preserved(self):
        q, c = random_pair(seed=4)
        rep_c = SAPLAReducer(12).transform(c)
        projected = project_onto_layout(q, rep_c)
        assert projected.right_endpoints == rep_c.right_endpoints

    def test_projection_length_mismatch_rejected(self):
        _, c = random_pair(seed=5)
        rep_c = SAPLAReducer(12).transform(c)
        with pytest.raises(ValueError):
            project_onto_layout(np.zeros(10), rep_c)

    def test_zero_for_query_equal_to_reconstruction(self):
        _, c = random_pair(seed=6)
        rep_c = SAPLAReducer(12).transform(c)
        assert dist_lb(rep_c.reconstruct(), rep_c) == pytest.approx(0.0, abs=1e-9)


class TestDistAE:
    @pytest.mark.parametrize("seed", range(5))
    def test_tighter_approximation_than_dist_lb(self, seed):
        q, c = random_pair(n=96, seed=seed + 400)
        rep_c = SAPLAReducer(12).transform(c)
        true = euclidean(q, c)
        assert abs(dist_ae(q, rep_c) - true) <= true  # sanity: same scale

    def test_can_exceed_euclidean(self):
        """Dist_AE breaks the lower-bounding lemma (paper Fig. 10)."""
        # query equal to the data series: true distance is 0, but the
        # reconstruction differs from the raw series, so Dist_AE > 0
        c = np.random.default_rng(7).normal(size=64).cumsum()
        rep_c = APCA(8).transform(c)
        assert dist_ae(c, rep_c) > 0.0 == euclidean(c, c)

    def test_length_mismatch_rejected(self):
        rep = LinearSegmentation([Segment(0, 4, 0, 0)])
        with pytest.raises(ValueError):
            dist_ae(np.zeros(3), rep)


class TestEqualLengthBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_pla_lower_bound(self, seed):
        q, c = random_pair(n=80, seed=seed + 500)
        rep_q = PLA(8).transform(q)
        rep_c = PLA(8).transform(c)
        assert aligned_distance(rep_q, rep_c) <= euclidean(q, c) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_paa_lower_bound(self, seed):
        q, c = random_pair(n=80, seed=seed + 600)
        rep_q = PAA(8).transform(q)
        rep_c = PAA(8).transform(c)
        assert aligned_distance(rep_q, rep_c) <= euclidean(q, c) + 1e-9

    def test_layout_mismatch_rejected(self):
        q, c = random_pair(seed=8)
        with pytest.raises(ValueError):
            aligned_distance(PAA(8).transform(q), PAA(4).transform(c))

    @pytest.mark.parametrize("seed", range(10))
    def test_cheby_triangle_lower_bound(self, seed):
        from repro.distance import dist_cheby

        q, c = random_pair(n=80, seed=seed + 700)
        reducer = CHEBY(8)
        got = dist_cheby(reducer, reducer.transform(q), reducer.transform(c))
        assert got <= euclidean(q, c) + 1e-9

    def test_triangle_bound_clips_at_zero(self):
        assert triangle_lower_bound(np.zeros(4), np.zeros(4), 1.0, 1.0) == 0.0


class TestSuite:
    def test_all_methods_have_suites(self):
        from repro.distance import make_suite
        from repro.reduction import REDUCERS

        for name, cls in REDUCERS.items():
            reducer = cls(n_coefficients=12)
            suite = make_suite(reducer)
            assert suite.method == name

    def test_suite_modes_for_adaptive(self):
        from repro.distance import QueryContext, make_suite

        q, c = random_pair(n=64, seed=9)
        reducer = SAPLAReducer(12)
        ctx = QueryContext(series=q, representation=reducer.transform(q))
        rep_c = reducer.transform(c)
        true = euclidean(q, c)
        suite = make_suite(reducer)
        lb = suite.query_bound(ctx, rep_c)
        par = suite.pairwise(ctx.representation, rep_c)
        ae = dist_ae(q, rep_c)
        assert suite.mode == "lb" and lb == dist_lb(q, rep_c)  # the one query bound
        assert lb <= true + 1e-9
        assert lb <= par + 1e-6  # tightness ordering
        assert abs(ae - true) < true  # AE approximates closely

    def test_unknown_mode_rejected(self):
        from repro.index import SeriesDatabase

        for mode in ("bogus", "par", "ae"):
            with pytest.raises(ValueError):
                SeriesDatabase(SAPLAReducer(12), distance_mode=mode)
