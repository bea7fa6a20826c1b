"""Tests for Increment Area and Reconstruction Area (Definitions 4.1, 4.2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.areas import area_between_lines, increment_area, reconstruction_area
from repro.core.linefit import LineFit

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def numeric_area(a1, b1, a2, b2, t0, t1, steps=20000):
    t = np.linspace(t0, t1, steps)
    return float(np.trapezoid(np.abs((a1 - a2) * t + (b1 - b2)), t))


class TestAreaBetweenLines:
    def test_parallel_lines(self):
        assert area_between_lines(1.0, 0.0, 1.0, 2.0, 0.0, 3.0) == pytest.approx(6.0)

    def test_identical_lines(self):
        assert area_between_lines(1.0, 1.0, 1.0, 1.0, 0.0, 5.0) == 0.0

    def test_crossing_lines_two_triangles(self):
        # lines y = t and y = 2 - t cross at t = 1 over [0, 2]
        assert area_between_lines(1.0, 0.0, -1.0, 2.0, 0.0, 2.0) == pytest.approx(2.0)

    def test_zero_width_interval(self):
        assert area_between_lines(1.0, 0.0, 0.0, 5.0, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            area_between_lines(0.0, 0.0, 0.0, 0.0, 3.0, 1.0)

    @given(finite, finite, finite, finite, finite, st.floats(min_value=0.01, max_value=100))
    def test_matches_numeric_integration(self, a1, b1, a2, b2, t0, width):
        t1 = t0 + width
        got = area_between_lines(a1, b1, a2, b2, t0, t1)
        ref = numeric_area(a1, b1, a2, b2, t0, t1)
        assert got == pytest.approx(ref, rel=1e-3, abs=1e-3)


class TestIncrementArea:
    def test_collinear_point_gives_zero_area(self):
        fit = LineFit.from_values(np.array([0.0, 1.0, 2.0]))
        inc = fit.extend_right(3.0)  # exactly on the line
        assert increment_area(fit, inc) == pytest.approx(0.0, abs=1e-9)

    def test_off_line_point_gives_positive_area(self):
        fit = LineFit.from_values(np.array([0.0, 1.0, 2.0]))
        inc = fit.extend_right(10.0)
        assert increment_area(fit, inc) > 0.0

    def test_length_mismatch_rejected(self):
        fit = LineFit.from_values(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            increment_area(fit, fit)

    def test_larger_outlier_gives_larger_area(self):
        fit = LineFit.from_values(np.array([0.0, 1.0, 2.0, 3.0]))
        small = increment_area(fit, fit.extend_right(5.0))
        large = increment_area(fit, fit.extend_right(50.0))
        assert large > small


class TestReconstructionArea:
    def test_collinear_halves_give_zero(self):
        left = LineFit.from_values(np.array([0.0, 1.0]))
        right = LineFit.from_values(np.array([2.0, 3.0]))
        merged = left.merge(right)
        assert reconstruction_area(left, right, merged) == pytest.approx(0.0, abs=1e-9)

    def test_v_shape_gives_positive_area(self):
        left = LineFit.from_values(np.array([2.0, 1.0, 0.0]))
        right = LineFit.from_values(np.array([1.0, 2.0, 3.0]))
        merged = left.merge(right)
        assert reconstruction_area(left, right, merged) > 0.0

    def test_length_mismatch_rejected(self):
        left = LineFit.from_values(np.array([0.0, 1.0]))
        right = LineFit.from_values(np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            reconstruction_area(left, right, left)

    def test_matches_numeric_integration(self):
        rng = np.random.default_rng(3)
        left_vals = rng.normal(size=6)
        right_vals = rng.normal(size=9)
        left = LineFit.from_values(left_vals)
        right = LineFit.from_values(right_vals)
        merged = left.merge(right)
        am, bm = merged.coefficients
        al, bl = left.coefficients
        ar, br = right.coefficients
        ref = numeric_area(am, bm, al, bl, 0.0, left.length - 1.0)
        ref += numeric_area(am, am * left.length + bm, ar, br, 0.0, right.length - 1.0)
        assert reconstruction_area(left, right, merged) == pytest.approx(ref, rel=1e-3)


def test_vectorised_areas_keep_the_discarded_lanes_quiet():
    """The kernel computes crossing triangles on every lane; where the lines
    do not cross, ``-db / da`` may overflow and the unused triangles turn
    ``inf - inf``.  That must raise no warning and change no value: every
    lane equals the scalar area."""
    import warnings

    from repro.core.kernels import areas_between_lines

    a1 = np.array([1e-300, 1.0, -2.0, 1e-300])
    b1 = np.array([1e10, 0.0, 3.0, -1e300])
    t1 = np.array([4.0, 4.0, 4.0, 7.0])
    zeros = np.zeros_like(a1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        areas = areas_between_lines(a1, b1, zeros, zeros, t1)
    lanes = zip(a1.tolist(), b1.tolist(), t1.tolist())
    expected = [area_between_lines(a, b, 0.0, 0.0, 0.0, end) for a, b, end in lanes]
    assert areas.tolist() == expected
