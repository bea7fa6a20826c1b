"""Cross-checks of the paper's printed closed forms against independent refits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.core import paper_equations as pe
from repro.core.linefit import LineFit

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def arrays(min_size, max_size=24):
    return st.lists(finite, min_size=min_size, max_size=max_size).map(np.asarray)


def refit(values):
    return LineFit.from_values(np.asarray(values, dtype=float)).coefficients


class TestEq1:
    @given(arrays(2))
    def test_matches_least_squares(self, values):
        assert pe.eq1_fit(values) == pytest.approx(refit(values), abs=1e-6)

    def test_single_point(self):
        assert pe.eq1_fit(np.array([3.0])) == (0.0, 3.0)


class TestEq2ExtendRight:
    @given(arrays(2), finite)
    def test_matches_refit(self, values, new):
        a, b = refit(values)
        got = pe.eq2_extend_right(a, b, len(values), new)
        assert got == pytest.approx(refit(np.append(values, new)), abs=1e-5)

    def test_paper_two_point_case(self):
        # extending <a=1, b=7> (points 7, 8) with 20 — the worked series
        a, b = pe.eq2_extend_right(1.0, 7.0, 2, 20.0)
        assert (a, b) == pytest.approx(refit([7.0, 8.0, 20.0]), abs=1e-9)


class TestEq3Eq4Merge:
    @given(arrays(2), arrays(2))
    def test_matches_refit(self, left, right):
        a_i, b_i = refit(left)
        a_j, b_j = refit(right)
        got = pe.eq3_eq4_merge(a_i, b_i, len(left), a_j, b_j, len(right))
        assert got == pytest.approx(refit(np.concatenate([left, right])), abs=1e-4)


class TestSplitEquations:
    @given(arrays(2, 16), arrays(2, 16))
    def test_eq7_eq8_right_part(self, left, right):
        whole = np.concatenate([left, right])
        a_m, b_m = refit(whole)
        a_i, b_i = refit(left)
        got = pe.eq7_eq8_split_right(a_m, b_m, len(whole), a_i, b_i, len(left))
        assert got == pytest.approx(refit(right), abs=1e-4)

    @given(arrays(2, 16), arrays(2, 16))
    def test_eq5_eq6_left_part(self, left, right):
        whole = np.concatenate([left, right])
        a_m, b_m = refit(whole)
        a_j, b_j = refit(right)
        got = pe.eq5_eq6_split_left(a_m, b_m, len(whole), a_j, b_j, len(right))
        assert got == pytest.approx(refit(left), abs=1e-4)


class TestEndpointEquations:
    @given(arrays(3))
    def test_eq9_shrink_right(self, values):
        a, b = refit(values)
        got = pe.eq9_shrink_right(a, b, len(values), values[-1])
        assert got == pytest.approx(refit(values[:-1]), abs=1e-5)

    @given(arrays(2), finite)
    def test_eq10_extend_left(self, values, new):
        a, b = refit(values)
        got = pe.eq10_extend_left(a, b, len(values), new)
        assert got == pytest.approx(refit(np.insert(values, 0, new)), abs=1e-5)

    @given(arrays(3))
    def test_eq11_shrink_left(self, values):
        a, b = refit(values)
        got = pe.eq11_shrink_left(a, b, len(values), values[0])
        assert got == pytest.approx(refit(values[1:]), abs=1e-5)

    def test_eq9_eq11_require_three_points(self):
        with pytest.raises(ValueError):
            pe.eq9_shrink_right(1.0, 0.0, 2, 1.0)
        with pytest.raises(ValueError):
            pe.eq11_shrink_left(1.0, 0.0, 2, 0.0)


class TestGapEquations:
    """Eqs. (16), (17): the endpoint gaps used by Lemma 4.1 / Theorem 4.1."""

    @given(arrays(2, 16), finite)
    def test_gaps_match_direct_evaluation(self, values, new):
        fit = LineFit.from_values(values)
        inc = fit.extend_right(new)
        l = fit.length
        c_ext = fit.value_at(float(l))  # extended segment's last point
        d4 = pe.eq16_d4(l, new, c_ext)
        d1 = pe.eq17_d1(l, new, c_ext)
        assert d4 == pytest.approx(inc.value_at(float(l)) - c_ext, abs=1e-5)
        assert d1 == pytest.approx(inc.value_at(0.0) - fit.value_at(0.0), abs=1e-5)

    @given(arrays(2, 16), finite)
    def test_lemma_4_1_opposite_signs(self, values, new):
        """The increment and extended lines cross: d1 * d4 <= 0."""
        fit = LineFit.from_values(values)
        l = fit.length
        c_ext = fit.value_at(float(l))
        assert pe.eq16_d4(l, new, c_ext) * pe.eq17_d1(l, new, c_ext) <= 1e-12

    @given(arrays(2, 16), finite)
    def test_theorem_4_1_dominance(self, values, new):
        """|d4| >= |d1| and d5 = |d3| + |d4| (Theorem 4.1)."""
        fit = LineFit.from_values(values)
        inc = fit.extend_right(new)
        l = fit.length
        c_ext = fit.value_at(float(l))
        d4 = pe.eq16_d4(l, new, c_ext)
        d1 = pe.eq17_d1(l, new, c_ext)
        d3 = new - inc.value_at(float(l))
        d5 = new - c_ext
        assert abs(d4) >= abs(d1) - 1e-9
        assert abs(d3) + abs(d4) == pytest.approx(abs(d5), abs=1e-6)
