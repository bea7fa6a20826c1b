"""Common interface for every dimensionality reduction method (Table 1).

All methods are configured by the *coefficient budget* ``M`` so comparisons
are fair the way the paper frames them: SAPLA/APLA store three coefficients
per segment (``N = M/3``), APCA/PLA two (``N = M/2``), PAA/PAALM/CHEBY/SAX
one (``N = M``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, List

import numpy as np

from .. import obs
from ..core.segment import LinearSegmentation

__all__ = ["Reducer", "SegmentReducer", "equal_length_bounds", "reduce_rows"]


def reduce_rows(reducer, matrix: np.ndarray) -> "List[Any]":
    """Reduce every row of ``matrix`` through ``reducer``'s batch path.

    Uses :meth:`Reducer.transform_batch` when the reducer provides it (every
    built-in does; rows are bit-identical to per-row ``transform``), falling
    back to the per-row loop for duck-typed reducers outside the protocol.
    """
    if len(matrix) == 0:
        return []
    transform_batch = getattr(reducer, "transform_batch", None)
    if transform_batch is not None:
        return transform_batch(matrix)
    return [reducer.transform(row) for row in matrix]


class Reducer(ABC):
    """A dimensionality reduction method with a coefficient budget ``M``."""

    #: method name as used in the paper's tables and figures
    name: ClassVar[str] = "?"
    #: how many stored coefficients one segment costs (Table 1's "Coeffici.")
    coefficients_per_segment: ClassVar[int] = 1

    def __init__(self, n_coefficients: int):
        if n_coefficients < self.coefficients_per_segment:
            raise ValueError(
                f"{self.name} needs at least {self.coefficients_per_segment} coefficients"
            )
        self.n_coefficients = int(n_coefficients)

    @property
    def n_segments(self) -> int:
        """Segment count ``N`` afforded by the coefficient budget (Table 1)."""
        return max(self.n_coefficients // self.coefficients_per_segment, 1)

    @abstractmethod
    def transform(self, series: np.ndarray) -> Any:
        """Reduce ``series`` to this method's representation."""

    @abstractmethod
    def reconstruct(self, representation: Any) -> np.ndarray:
        """Rebuild the approximate series from a representation."""

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def transform_batch(self, data: np.ndarray) -> "List[Any]":
        """Reduce every row of a ``(count, n)`` matrix.

        Bit-identical to ``[self.transform(row) for row in data]`` for every
        reducer: subclasses with a vectorised kernel override
        :meth:`_transform_batch_rows` with array-at-a-time arithmetic that
        replicates the scalar operation order exactly; the base fallback runs
        the per-row loop (counted as ``reduce.scalar_fallback``).
        """
        matrix = self._validated_matrix(data)
        with obs.span("reduce.batch"):
            obs.count("reduce.batch_calls")
            obs.count("reduce.batch_rows", matrix.shape[0])
            return self._transform_batch_rows(matrix)

    def _transform_batch_rows(self, matrix: np.ndarray) -> "List[Any]":
        """Per-row fallback; vectorised reducers override this hook."""
        obs.count("reduce.scalar_fallback", matrix.shape[0])
        return [self.transform(row) for row in matrix]

    def _validated_matrix(self, data: np.ndarray) -> np.ndarray:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError(f"{self.name} batch-reduces a non-empty (count, n) matrix")
        if not np.isfinite(matrix).all():
            raise ValueError(f"{self.name} input contains NaN or infinite values")
        return matrix

    # ------------------------------------------------------------------
    def max_deviation(self, series: np.ndarray) -> float:
        """Max deviation (Definition 3.4) of reducing then reconstructing."""
        series = np.asarray(series, dtype=float)
        recon = self.reconstruct(self.transform(series))
        return float(np.abs(series - recon).max())

    def _validated(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=float)
        if series.ndim != 1 or series.shape[0] == 0:
            raise ValueError(f"{self.name} reduces non-empty one-dimensional series")
        if not np.isfinite(series).all():
            raise ValueError(f"{self.name} input contains NaN or infinite values")
        return series

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_coefficients={self.n_coefficients})"


class SegmentReducer(Reducer):
    """A reducer whose representation is a :class:`LinearSegmentation`.

    SAPLA, APLA, APCA, PLA, PAA and PAALM all fall in this family (constant
    segments are lines with slope zero), which lets one distance and indexing
    stack serve them all.
    """

    def reconstruct(self, representation: LinearSegmentation) -> np.ndarray:
        return representation.reconstruct()


def equal_length_bounds(n: int, n_segments: int) -> "list[tuple[int, int]]":
    """Split ``[0, n)`` into ``n_segments`` near-equal inclusive windows.

    The first ``n % n_segments`` windows get the extra point, matching the
    usual PAA convention.  Fewer windows are returned when ``n`` is small.
    """
    n_segments = min(max(n_segments, 1), n)
    base, extra = divmod(n, n_segments)
    bounds = []
    start = 0
    for i in range(n_segments):
        length = base + (1 if i < extra else 0)
        bounds.append((start, start + length - 1))
        start += length
    return bounds
