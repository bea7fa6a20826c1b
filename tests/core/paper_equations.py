"""The paper's explicit closed-form coefficient updates (Eqs. (1)-(11), (16), (17)).

These are the formulas exactly as printed in the EDBT 2022 paper, kept with
the tests as the paper-faithful oracle that ``test_paper_equations.py``
checks the production fits against.  The production code paths in
:mod:`repro.core` use the sufficient-statistics formulation of
:class:`repro.core.linefit.LineFit`, which is algebraically equivalent; the
test-suite asserts the two agree to floating-point accuracy.

Known issues in the source text (documented in DESIGN.md):

* Eq. (1) prints ``(n - 1) / 2`` where the least-squares derivation requires
  ``(l - 1) / 2`` (segment length, not series length).  Corrected here.
* Eqs. (5) and (6) (recovering the *left* sub-fit during a split) are
  corrupted by typesetting in the available text.  They are provided here in
  the re-derived equivalent form (inverse of the merge Eqs. (3), (4)); the
  right-sub-fit Eqs. (7), (8) are printed intact and implemented verbatim.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eq1_fit",
    "eq2_extend_right",
    "eq3_eq4_merge",
    "eq5_eq6_split_left",
    "eq7_eq8_split_right",
    "eq9_shrink_right",
    "eq10_extend_left",
    "eq11_shrink_left",
    "eq16_d4",
    "eq17_d1",
]

Coefficients = "tuple[float, float]"


def eq1_fit(values: np.ndarray) -> tuple[float, float]:
    """Paper Eq. (1): slope and intercept of a segment's least-squares line.

    Implements the corrected form with the segment length ``l`` in the
    centring term (the paper prints the series length ``n`` there).
    """
    values = np.asarray(values, dtype=float)
    l = values.shape[0]
    if l < 2:
        return 0.0, float(values[0]) if l == 1 else 0.0
    t = np.arange(l, dtype=float)
    a = 12.0 * float(((t - (l - 1) / 2.0) * values).sum()) / (l * (l - 1) * (l + 1))
    b = 2.0 * float(((2 * l - 1 - 3 * t) * values).sum()) / (l * (l + 1))
    return a, b


def eq2_extend_right(a: float, b: float, l: int, c_new: float) -> tuple[float, float]:
    """Paper Eq. (2): O(1) refit after appending ``c_new`` at local ``t = l``."""
    a_new = ((l - 2) * (l - 1) * a + 6.0 * (c_new - b)) / ((l + 1) * (l + 2))
    b_new = (2.0 * (l - 1) * (a * l - c_new) + (l + 5) * l * b) / ((l + 1) * (l + 2))
    return a_new, b_new


def eq3_eq4_merge(
    a_i: float, b_i: float, l_i: int, a_j: float, b_j: float, l_j: int
) -> tuple[float, float]:
    """Paper Eqs. (3), (4): O(1) refit of two adjacent segments merged into one."""
    l_m = l_i + l_j
    denom_a = l_m * (l_m - 1) * (l_m + 1)
    a_new = (
        a_i * l_i * (l_i - 1) * (l_i + 1 - 3 * l_j)
        - 6.0 * l_i * l_j * b_i
        + a_j * l_j * (l_j - 1) * (l_j + 1 + 3 * l_i)
        + 6.0 * l_i * l_j * b_j
    ) / denom_a
    denom_b = l_m * (l_m + 1)
    b_new = (
        b_i * l_i * (l_i + 1)
        + 2.0 * a_i * l_j * l_i * (l_i - 1)
        + 4.0 * l_i * l_j * b_i
        + b_j * l_j * (l_j + 1)
        - a_j * l_i * l_j * (l_j - 1)
        - 2.0 * l_i * l_j * b_j
    ) / denom_b
    return a_new, b_new


def eq7_eq8_split_right(
    a_m: float, b_m: float, l_m: int, a_i: float, b_i: float, l_i: int
) -> tuple[float, float]:
    """Paper Eqs. (7), (8): recover the right sub-fit from the whole and the left."""
    l_j = l_m - l_i
    denom_a = l_j * (l_j * l_j - 1)
    a_new = (
        a_m * l_m * (l_m - 1) * (l_m + 1 - 3 * l_i)
        + a_i * l_i * (l_i - 1) * (2 * l_m + l_j - 1)
        + 6.0 * l_i * l_m * (b_i - b_m)
    ) / denom_a
    denom_b = l_j * (l_j + 1)
    b_new = (
        a_m * l_i * l_m * (l_m - 1)
        + b_m * l_m * (l_m + 1 + 2 * l_i)
        - a_i * l_i * (l_i - 1) * (l_m + l_j)
        - b_i * l_i * (3 * l_m + l_j + 1)
    ) / denom_b
    return a_new, b_new


def eq5_eq6_split_left(
    a_m: float, b_m: float, l_m: int, a_j: float, b_j: float, l_j: int
) -> tuple[float, float]:
    """Paper Eqs. (5), (6): recover the left sub-fit from the whole and the right.

    The printed equations are corrupted in the available text; this is the
    re-derived equivalent obtained by inverting the merge Eqs. (3), (4)
    through the least-squares sufficient statistics (see DESIGN.md).
    """
    l_i = l_m - l_j
    # sufficient statistics of the whole and the right part
    s1_m, l_m_f = l_m * (l_m - 1) / 2.0, float(l_m)
    s2_m = l_m * (l_m - 1) * (2 * l_m - 1) / 6.0
    s1_j = l_j * (l_j - 1) / 2.0
    s2_j = l_j * (l_j - 1) * (2 * l_j - 1) / 6.0
    sum_y_m = a_m * s1_m + b_m * l_m_f
    sum_ty_m = a_m * s2_m + b_m * s1_m
    sum_y_j = a_j * s1_j + b_j * l_j
    sum_ty_j = a_j * s2_j + b_j * s1_j
    sum_y_i = sum_y_m - sum_y_j
    sum_ty_i = sum_ty_m - (sum_ty_j + l_i * sum_y_j)
    if l_i == 1:
        return 0.0, sum_y_i
    s1_i = l_i * (l_i - 1) / 2.0
    s2_i = l_i * (l_i - 1) * (2 * l_i - 1) / 6.0
    det = l_i * s2_i - s1_i * s1_i
    a_new = (l_i * sum_ty_i - s1_i * sum_y_i) / det
    b_new = (sum_y_i - a_new * s1_i) / l_i
    return a_new, b_new


def eq9_shrink_right(a: float, b: float, l: int, c_last: float) -> tuple[float, float]:
    """Paper Eq. (9): O(1) refit after removing the last point ``c_last``."""
    if l <= 2:
        raise ValueError("Eq. (9) requires l > 2")
    a_new = (l + 4) * a / (l - 2) + 6.0 * (b - c_last) / ((l - 1) * (l - 2))
    b_new = (l - 3) * b / (l - 1) - 2.0 * a + 2.0 * c_last / (l - 1)
    return a_new, b_new


def eq10_extend_left(a: float, b: float, l: int, c_new: float) -> tuple[float, float]:
    """Paper Eq. (10): O(1) refit after prepending ``c_new``."""
    a_new = (a * (l - 1) * (l + 4) + 6.0 * (b - c_new)) / ((l + 1) * (l + 2))
    b_new = (2.0 * (2 * l + 1) * c_new + l * (l - 1) * (b - a)) / ((l + 1) * (l + 2))
    return a_new, b_new


def eq11_shrink_left(a: float, b: float, l: int, c_first: float) -> tuple[float, float]:
    """Paper Eq. (11): O(1) refit after removing the first point ``c_first``."""
    if l <= 2:
        raise ValueError("Eq. (11) requires l > 2")
    a_new = a + 6.0 * (c_first - b) / ((l - 1) * (l - 2))
    b_new = a + ((l + 3) * b - 4.0 * c_first) / (l - 1)
    return a_new, b_new


def eq16_d4(l: int, c_new: float, c_ext: float) -> float:
    """Paper Eq. (16): gap between increment and extended lines at ``t = l``."""
    return 2.0 * (2 * l + 1) * (c_new - c_ext) / ((l + 1) * (l + 2))


def eq17_d1(l: int, c_new: float, c_ext: float) -> float:
    """Paper Eq. (17): gap between increment and extended lines at ``t = 0``.

    The printed equation omits a factor of 2 (re-derived via the fit's linear
    response to a unit residual at ``t = l``; see DESIGN.md).  With the factor
    restored, Lemma 4.1 (``d1 * d4 <= 0``) and Theorem 4.1 (``|d4| >= |d1|``,
    ``|d3| + |d4| = |d5|``) hold exactly, as the property tests verify.
    """
    return 2.0 * (l - 1) * (c_ext - c_new) / ((l + 1) * (l + 2))
