"""Evaluation metrics: max deviation, pruning power, accuracy."""

from ..index.knn import KNNResult
from .deviation import max_deviation, segment_deviations, sum_of_segment_deviations

__all__ = [
    "max_deviation",
    "segment_deviations",
    "sum_of_segment_deviations",
    "KNNResult",
]
