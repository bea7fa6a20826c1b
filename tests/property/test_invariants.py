"""Cross-stack property tests: the invariants everything else relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SAPLA, SeriesStats
from repro.core.areas import area_between_lines
from repro.core.linefit import LineFit
from repro.distance import dist_lb, dist_par, euclidean
from repro.index import SeriesDatabase
from repro.reduction import APCA, PAA, PLA, SAPLAReducer

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def series_strategy(min_size=4, max_size=100):
    return st.lists(finite, min_size=min_size, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=float)
    )


class TestLineFitAlgebra:
    @given(series_strategy(2, 40), series_strategy(2, 40), series_strategy(2, 40))
    @settings(max_examples=50)
    def test_merge_is_associative(self, a, b, c):
        fa, fb, fc = map(LineFit.from_values, (a, b, c))
        left = fa.merge(fb).merge(fc)
        right = fa.merge(fb.merge(fc))
        assert left.coefficients == pytest.approx(right.coefficients, abs=1e-4)

    @given(series_strategy(2, 60))
    @settings(max_examples=50)
    def test_residuals_sum_to_zero(self, values):
        """The normal equations: reconstruction preserves the mean."""
        fit = LineFit.from_values(values)
        residuals = values - fit.reconstruct()
        assert float(residuals.sum()) == pytest.approx(0.0, abs=1e-5 * (1 + np.abs(values).sum()))


class TestAreaProperties:
    @given(finite, finite, finite, finite, st.floats(0, 50), st.floats(0.1, 50))
    @settings(max_examples=50)
    def test_symmetry(self, a1, b1, a2, b2, t0, width):
        forward = area_between_lines(a1, b1, a2, b2, t0, t0 + width)
        backward = area_between_lines(a2, b2, a1, b1, t0, t0 + width)
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)

    @given(finite, finite, st.floats(0, 50), st.floats(0.1, 50))
    @settings(max_examples=50)
    def test_identical_lines_zero(self, a, b, t0, width):
        assert area_between_lines(a, b, a, b, t0, t0 + width) == 0.0


class TestReductionInvariants:
    @given(series_strategy(4, 80), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_sapla_reconstruction_error_bounded_by_range(self, values, n_segments):
        rep = SAPLA(n_segments=n_segments).transform(values)
        gap = float(np.abs(values - rep.reconstruct()).max())
        spread = float(values.max() - values.min())
        assert gap <= spread + 1e-6

    @given(series_strategy(6, 80))
    @settings(max_examples=30, deadline=None)
    def test_segment_methods_agree_on_linear_data(self, values):
        """On perfectly linear data every linear method is lossless."""
        linear = np.linspace(values[0], values[0] + 5, 40)
        for reducer in (SAPLAReducer(6), PLA(4)):
            recon = reducer.reconstruct(reducer.transform(linear))
            assert float(np.abs(linear - recon).max()) < 1e-6


class TestDistanceInvariants:
    @given(series_strategy(16, 64), series_strategy(16, 64))
    @settings(max_examples=30, deadline=None)
    def test_dist_lb_lower_bounds_for_every_adaptive_method(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        true = euclidean(a, b)
        for reducer in (SAPLAReducer(9), APCA(6), PAA(6)):
            rep_b = reducer.transform(b)
            assert dist_lb(a, rep_b) <= true + 1e-6 * (1 + true)

    @given(series_strategy(16, 64))
    @settings(max_examples=30, deadline=None)
    def test_dist_par_identity_of_same_representation(self, a):
        rep = SAPLAReducer(9).transform(a)
        assert dist_par(rep, rep) == pytest.approx(0.0, abs=1e-9)

    @given(series_strategy(16, 64), series_strategy(16, 64))
    @settings(max_examples=30, deadline=None)
    def test_dist_par_symmetry(self, a, b):
        n = min(len(a), len(b))
        rep_a = SAPLAReducer(9).transform(a[:n])
        rep_b = APCA(6).transform(b[:n])
        assert dist_par(rep_a, rep_b) == pytest.approx(dist_par(rep_b, rep_a), rel=1e-9)


class TestSearchInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_exact_scan_never_misses(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(20, 32)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(9), index=None)
        db.ingest(data)
        query = data[int(rng.integers(20))] + rng.normal(scale=0.1, size=32)
        got = db.knn(query, 3)
        truth = db.ground_truth(query, 3)
        assert got.ids == truth.ids
