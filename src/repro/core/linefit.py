"""Least-squares line fitting over integer abscissae with O(1) updates.

Every segment-based method in this package (SAPLA, APLA, PLA, APCA, ...)
represents a stretch of a time series by the least-squares line fitted over
local abscissae ``t = 0, 1, ..., length - 1`` (paper Eq. (1)).  SAPLA's whole
speed argument rests on being able to *extend*, *shrink*, *merge* and *split*
such fits in constant time (paper Eqs. (2)-(11)).

The closed forms in the paper follow from the least-squares normal equations:

    sum(y)   = a * S1 + b * l          (residuals sum to zero)
    sum(t*y) = a * S2 + b * S1         (residuals are orthogonal to t)

with ``S1 = l(l-1)/2`` and ``S2 = l(l-1)(2l-1)/6``.  Therefore the pair
``(sum_y, sum_ty)`` is a *sufficient statistic* for the fit, recoverable
exactly from ``(a, b, l)`` and updatable in O(1) under every operation the
paper needs.  This module implements the fits in terms of those statistics;
``tests/core/paper_equations.py`` re-states the paper's explicit formulas and
the test-suite cross-checks the two against each other and against refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LineFit", "SeriesStats", "SeriesPrefix", "fit_line"]


def _moment_sums(length: int) -> tuple[float, float]:
    """Return ``(S1, S2)``: sums of ``t`` and ``t**2`` for ``t in [0, length)``."""
    s1 = length * (length - 1) / 2.0
    s2 = length * (length - 1) * (2 * length - 1) / 6.0
    return s1, s2


@dataclass(frozen=True)
class LineFit:
    """Least-squares line over ``t = 0 .. length-1`` kept as sufficient statistics.

    Attributes:
        length: number of points covered by the fit (``l`` in the paper).
        sum_y: sum of the covered values.
        sum_ty: sum of ``t * y`` with *local* ``t`` starting at zero.
    """

    length: int
    sum_y: float
    sum_ty: float

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: np.ndarray) -> "LineFit":
        """Fit the line over ``values`` (local abscissae ``0..len-1``)."""
        values = np.asarray(values, dtype=float)
        length = int(values.shape[0])
        if length == 0:
            raise ValueError("cannot fit a line over an empty segment")
        t = np.arange(length, dtype=float)
        return cls(length=length, sum_y=float(values.sum()), sum_ty=float((t * values).sum()))

    @classmethod
    def from_coefficients(cls, a: float, b: float, length: int) -> "LineFit":
        """Recover the sufficient statistics from slope/intercept (normal equations)."""
        if length < 1:
            raise ValueError("length must be >= 1")
        s1, s2 = _moment_sums(length)
        return cls(length=length, sum_y=a * s1 + b * length, sum_ty=a * s2 + b * s1)

    # ------------------------------------------------------------------
    # coefficients
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> tuple[float, float]:
        """Return ``(a, b)``: slope and intercept of the least-squares line.

        A single point has slope zero; this matches the paper's convention of
        never producing genuinely degenerate fits (segments have ``l >= 2``
        except transiently at series boundaries).
        """
        l = self.length
        if l == 1:
            return 0.0, self.sum_y
        s1, s2 = _moment_sums(l)
        # determinant of the normal equations: l*S2 - S1^2 = l^2(l-1)(l+1)/12
        det = l * s2 - s1 * s1
        a = (l * self.sum_ty - s1 * self.sum_y) / det
        b = (self.sum_y - a * s1) / l
        return a, b

    @property
    def a(self) -> float:
        return self.coefficients[0]

    @property
    def b(self) -> float:
        return self.coefficients[1]

    def value_at(self, t: float) -> float:
        """Evaluate the fitted line at local abscissa ``t``."""
        a, b = self.coefficients
        return a * t + b

    def reconstruct(self) -> np.ndarray:
        """Reconstructed values at ``t = 0 .. length-1``."""
        a, b = self.coefficients
        return a * np.arange(self.length, dtype=float) + b

    # ------------------------------------------------------------------
    # O(1) updates (paper Eqs. (2), (3), (4), (9), (10), (11))
    # ------------------------------------------------------------------
    def extend_right(self, value: float) -> "LineFit":
        """Append one point after the segment (paper Eq. (2))."""
        return LineFit(
            length=self.length + 1,
            sum_y=self.sum_y + value,
            sum_ty=self.sum_ty + self.length * value,
        )

    def shrink_right(self, value: float) -> "LineFit":
        """Drop the last covered point, whose value must be given (paper Eq. (9))."""
        if self.length <= 1:
            raise ValueError("cannot shrink a single-point fit")
        return LineFit(
            length=self.length - 1,
            sum_y=self.sum_y - value,
            sum_ty=self.sum_ty - (self.length - 1) * value,
        )

    def extend_left(self, value: float) -> "LineFit":
        """Prepend one point before the segment (paper Eq. (10)).

        Existing points shift from local ``t`` to ``t + 1``.
        """
        return LineFit(
            length=self.length + 1,
            sum_y=self.sum_y + value,
            sum_ty=self.sum_ty + self.sum_y,
        )

    def shrink_left(self, value: float) -> "LineFit":
        """Drop the first covered point, whose value must be given (paper Eq. (11))."""
        if self.length <= 1:
            raise ValueError("cannot shrink a single-point fit")
        remaining = self.sum_y - value
        return LineFit(
            length=self.length - 1,
            sum_y=remaining,
            sum_ty=self.sum_ty - remaining,
        )

    def merge(self, right: "LineFit") -> "LineFit":
        """Merge with the adjacent segment to the right (paper Eqs. (3), (4)).

        Because the sufficient statistics recovered from each fit equal those
        of the underlying points, the merged fit equals the least-squares fit
        over the union of the original points.
        """
        return LineFit(
            length=self.length + right.length,
            sum_y=self.sum_y + right.sum_y,
            sum_ty=self.sum_ty + right.sum_ty + self.length * right.sum_y,
        )

    def split_off_right(self, left: "LineFit") -> "LineFit":
        """Recover the right sub-fit given the fit over the left part (Eqs. (7), (8))."""
        if left.length >= self.length:
            raise ValueError("left part must be strictly shorter than the whole")
        sum_y = self.sum_y - left.sum_y
        # right part's global t*y minus the coordinate shift by left.length
        sum_ty = self.sum_ty - left.sum_ty - left.length * sum_y
        return LineFit(length=self.length - left.length, sum_y=sum_y, sum_ty=sum_ty)

    def split_off_left(self, right: "LineFit") -> "LineFit":
        """Recover the left sub-fit given the fit over the right part (Eqs. (5), (6))."""
        if right.length >= self.length:
            raise ValueError("right part must be strictly shorter than the whole")
        left_length = self.length - right.length
        sum_y = self.sum_y - right.sum_y
        sum_ty = self.sum_ty - (right.sum_ty + left_length * right.sum_y)
        return LineFit(length=left_length, sum_y=sum_y, sum_ty=sum_ty)


class SeriesStats:
    """Prefix sums over a series giving the exact line fit of any window in O(1).

    SAPLA holds the original series while it iterates, so every split /
    endpoint movement can obtain the *exact* least-squares fit of the new
    sub-segments from two prefix-sum lookups instead of a rescan.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("SeriesStats expects a one-dimensional series")
        self._values = values
        n = values.shape[0]
        t = np.arange(n, dtype=float)
        self._prefix_y = np.concatenate(([0.0], np.cumsum(values)))
        self._prefix_ty = np.concatenate(([0.0], np.cumsum(t * values)))
        self._prefix_yy = np.concatenate(([0.0], np.cumsum(values * values)))

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def prefix_y(self) -> np.ndarray:
        """Cumulative sums of the values: ``prefix_y[i] = sum(values[:i])``."""
        return self._prefix_y

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def window_fit(self, start: int, end: int) -> LineFit:
        """Exact least-squares :class:`LineFit` over global indices ``[start, end]``.

        Both bounds are inclusive, matching the paper's segment convention
        where ``r_i`` is the right endpoint index.
        """
        if not 0 <= start <= end < len(self):
            raise IndexError(f"window [{start}, {end}] out of range for length {len(self)}")
        sum_y = self._prefix_y[end + 1] - self._prefix_y[start]
        sum_ty_global = self._prefix_ty[end + 1] - self._prefix_ty[start]
        # shift abscissae so the window starts at local t = 0
        sum_ty = sum_ty_global - start * sum_y
        return LineFit(length=end - start + 1, sum_y=sum_y, sum_ty=sum_ty)

    def window_sums(self, start: int, end: int) -> tuple[float, float]:
        """Return ``(sum_y, sum_y_squared)`` over global ``[start, end]`` in O(1).

        Used by constant-value methods (APCA, PAA) whose merge cost is the
        sum-of-squared-errors around the window mean.
        """
        if not 0 <= start <= end < len(self):
            raise IndexError(f"window [{start}, {end}] out of range for length {len(self)}")
        sum_y = float(self._prefix_y[end + 1] - self._prefix_y[start])
        sum_yy = float(self._prefix_yy[end + 1] - self._prefix_yy[start])
        return sum_y, sum_yy

    def window_constant_sse(self, start: int, end: int) -> float:
        """Sum of squared errors of the best constant over ``[start, end]``."""
        sum_y, sum_yy = self.window_sums(start, end)
        length = end - start + 1
        return max(sum_yy - sum_y * sum_y / length, 0.0)


# The kernel layer's name for the sufficient-statistics view: cumulative
# sums of y, t*y and y**2 computed once per series with np.cumsum.
SeriesPrefix = SeriesStats


def fit_line(values: np.ndarray) -> tuple[float, float]:
    """Convenience wrapper returning ``(a, b)`` of the least-squares line."""
    return LineFit.from_values(values).coefficients
