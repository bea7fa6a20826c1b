"""PAALM — PAA with Lagrangian Multipliers (Rezvani, Barnaghi, Enshaeifar 2019).

The original method represents continuous data as a series of patterns by
solving a Lagrangian-regularised approximation problem; it does not aim to
minimise max deviation, which is exactly why the paper includes it (the
"worst max deviation" strawman in the k-NN evaluation).

Reference code is closed; the faithful-in-role substitute implemented here
(DESIGN.md substitution 2) solves the Lagrangian smoothing problem

    min_v  ||c - v||^2 + lam * ||D v||^2       (D = first difference)

via its banded normal equations and then takes PAA segment means of the
smoothed series.  The smoothing deliberately trades max deviation for
pattern stability, reproducing PAALM's qualitative behaviour.
"""

from __future__ import annotations

import numpy as np

from ..core.segment import LinearSegmentation, Segment
from .base import SegmentReducer, equal_length_bounds

__all__ = ["PAALM", "lagrangian_smooth", "lagrangian_smooth_batch"]


def _smoothing_bands(n: int, lam: float) -> np.ndarray:
    """Banded form of ``I + lam * D'D`` for :func:`scipy.linalg.solveh_banded`."""
    # D'D is tridiagonal: diag (1, 2, ..., 2, 1), off-diagonal -1
    upper = np.full(n, -lam)
    upper[0] = 0.0  # solveh_banded ignores the first superdiagonal slot
    diag = np.full(n, 1.0 + 2.0 * lam)
    diag[0] = diag[-1] = 1.0 + lam
    return np.vstack([upper, diag])


def lagrangian_smooth(series: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(I + lam * D'D) v = c`` with a symmetric banded solver."""
    n = series.shape[0]
    if n == 1 or lam == 0.0:
        return series.astype(float)
    from scipy.linalg import solveh_banded  # at the call site, as in sax.py

    return solveh_banded(_smoothing_bands(n, lam), series.astype(float))


def lagrangian_smooth_batch(matrix: np.ndarray, lam: float) -> np.ndarray:
    """Smooth every row of ``matrix`` through one multi-RHS banded solve.

    ``solveh_banded`` factors the band once and back-substitutes each
    right-hand-side column independently, so row ``i`` of the result is
    bit-identical to ``lagrangian_smooth(matrix[i], lam)``.
    """
    n = matrix.shape[1]
    if n == 1 or lam == 0.0:
        return matrix.astype(float)
    from scipy.linalg import solveh_banded

    return solveh_banded(_smoothing_bands(n, lam), matrix.astype(float).T).T


class PAALM(SegmentReducer):
    """Lagrangian-regularised PAA (pattern-oriented baseline)."""

    name = "PAALM"
    coefficients_per_segment = 1

    def __init__(self, n_coefficients: int, lam: float = 5.0):
        super().__init__(n_coefficients)
        if lam < 0:
            raise ValueError("the Lagrangian multiplier must be non-negative")
        self.lam = float(lam)

    def transform(self, series: np.ndarray) -> LinearSegmentation:
        series = self._validated(series)
        smoothed = lagrangian_smooth(series, self.lam)
        segments = [
            Segment(start=start, end=end, a=0.0, b=float(smoothed[start : end + 1].mean()))
            for start, end in equal_length_bounds(len(series), self.n_segments)
        ]
        return LinearSegmentation(segments)

    def _transform_batch_rows(self, matrix: np.ndarray) -> "list[LinearSegmentation]":
        smoothed = lagrangian_smooth_batch(matrix, self.lam)
        bounds = equal_length_bounds(matrix.shape[1], self.n_segments)
        means = [smoothed[:, start : end + 1].mean(axis=1) for start, end in bounds]
        return [
            LinearSegmentation(
                [
                    Segment(start=start, end=end, a=0.0, b=float(col[i]))
                    for (start, end), col in zip(bounds, means)
                ]
            )
            for i in range(matrix.shape[0])
        ]
