"""Adapter exposing the core SAPLA pipeline behind the Reducer interface."""

from __future__ import annotations

import numpy as np

from ..core.lockstep import transform_rows
from ..core.sapla import SAPLA as _CoreSAPLA
from ..core.segment import LinearSegmentation
from .base import SegmentReducer

__all__ = ["SAPLAReducer"]


class SAPLAReducer(SegmentReducer):
    """SAPLA as a drop-in member of the reducer family (``N = M/3``)."""

    name = "SAPLA"
    coefficients_per_segment = 3

    def __init__(self, n_coefficients: int, bound_mode: str = "paper", refine_endpoints: bool = True):
        super().__init__(n_coefficients)
        self._pipeline = _CoreSAPLA(
            n_segments=self.n_segments,
            bound_mode=bound_mode,
            refine_endpoints=refine_endpoints,
        )

    def transform(self, series: np.ndarray) -> LinearSegmentation:
        return self._pipeline.transform(self._validated(series))

    def _transform_batch_rows(self, matrix: np.ndarray) -> "list[LinearSegmentation]":
        pipeline = self._pipeline
        if pipeline.bound_mode != "paper":
            # the exact-bound ablation has no lock-step kernel
            return super()._transform_batch_rows(matrix)
        # the validated matrix reduces block by block, every row bit-identical
        # to `transform` (which stays the cheaper path for one row)
        return transform_rows(matrix, pipeline.n_segments, pipeline.refine_endpoints)
