"""Unit and property tests for the sufficient-statistics line algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linefit import LineFit, SeriesStats, fit_line

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def values_arrays(min_size=2, max_size=64):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size).map(np.asarray)


def polyfit_reference(values):
    """Independent reference: numpy.polyfit over local abscissae."""
    t = np.arange(len(values), dtype=float)
    a, b = np.polyfit(t, values, 1)
    return a, b


class TestFromValues:
    def test_two_points(self):
        fit = LineFit.from_values(np.array([7.0, 8.0]))
        assert fit.coefficients == pytest.approx((1.0, 7.0))

    def test_single_point_has_zero_slope(self):
        fit = LineFit.from_values(np.array([5.0]))
        assert fit.coefficients == (0.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LineFit.from_values(np.array([]))

    def test_paper_example_last_segment(self):
        # last segment of Fig. 5: points 10..19 of the worked series
        values = np.array([4, 3, 3, 5, 4, 9, 2, 9, 10, 10], dtype=float)
        fit = LineFit.from_values(values)
        assert fit.a == pytest.approx(0.781818, abs=1e-6)
        assert fit.b == pytest.approx(2.38182, abs=1e-5)

    @given(values_arrays())
    @settings(max_examples=100)
    def test_matches_polyfit(self, values):
        a, b = LineFit.from_values(values).coefficients
        a_ref, b_ref = polyfit_reference(values)
        assert a == pytest.approx(a_ref, abs=1e-6 * (1 + abs(a_ref)))
        assert b == pytest.approx(b_ref, abs=1e-6 * (1 + abs(b_ref)))


class TestRoundTrip:
    @given(values_arrays())
    def test_coefficient_round_trip(self, values):
        fit = LineFit.from_values(values)
        again = LineFit.from_coefficients(fit.a, fit.b, fit.length)
        assert again.sum_y == pytest.approx(fit.sum_y, abs=1e-6 * (1 + abs(fit.sum_y)))
        assert again.sum_ty == pytest.approx(fit.sum_ty, abs=1e-6 * (1 + abs(fit.sum_ty)))

    def test_from_coefficients_rejects_bad_length(self):
        with pytest.raises(ValueError):
            LineFit.from_coefficients(1.0, 0.0, 0)


class TestIncrementalOps:
    @given(values_arrays(min_size=2, max_size=32), finite_floats)
    def test_extend_right_equals_refit(self, values, new):
        fit = LineFit.from_values(values).extend_right(new)
        ref = LineFit.from_values(np.append(values, new))
        assert fit.coefficients == pytest.approx(ref.coefficients, abs=1e-6)

    @given(values_arrays(min_size=2, max_size=24), values_arrays(min_size=2, max_size=24))
    def test_merge_equals_refit(self, left, right):
        merged = LineFit.from_values(left).merge(LineFit.from_values(right))
        ref = LineFit.from_values(np.concatenate([left, right]))
        assert merged.coefficients == pytest.approx(ref.coefficients, abs=1e-5)


class TestReconstruction:
    def test_reconstruct_matches_line(self):
        fit = LineFit.from_coefficients(2.0, 1.0, 4)
        np.testing.assert_allclose(fit.reconstruct(), [1.0, 3.0, 5.0, 7.0])

    def test_value_at(self):
        fit = LineFit.from_coefficients(0.5, 1.0, 3)
        assert fit.value_at(4.0) == pytest.approx(3.0)


class TestSeriesStats:
    def test_window_fit_matches_direct_fit(self):
        rng = np.random.default_rng(7)
        series = rng.normal(size=50)
        stats = SeriesStats(series)
        for start, end in [(0, 4), (3, 20), (10, 10), (0, 49), (40, 49)]:
            got = stats.window_fit(start, end).coefficients
            ref = LineFit.from_values(series[start : end + 1]).coefficients
            assert got == pytest.approx(ref, abs=1e-9)

    def test_out_of_range_window_rejected(self):
        stats = SeriesStats(np.arange(5.0))
        with pytest.raises(IndexError):
            stats.window_fit(3, 5)
        with pytest.raises(IndexError):
            stats.window_fit(-1, 2)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            SeriesStats(np.zeros((3, 3)))

    def test_len_and_values(self):
        stats = SeriesStats(np.arange(5.0))
        assert len(stats) == 5
        np.testing.assert_array_equal(stats.values, np.arange(5.0))


def test_fit_line_convenience():
    a, b = fit_line(np.array([0.0, 1.0, 2.0]))
    assert (a, b) == pytest.approx((1.0, 0.0))
