"""Core SAPLA machinery: segment algebra, areas, bounds, and the three stages."""

from .areas import area_between_lines, increment_area, reconstruction_area
from .bounds import (
    beta_initialization,
    beta_merge,
    beta_segment,
    beta_split,
    exact_max_deviation,
    get_max,
    segment_bound,
)
from .endpoint_movement import move_endpoints
from .initialization import initialize, initialize_fast
from .linefit import LineFit, SeriesStats, fit_line
from .sapla import SAPLA, sapla_transform
from .segment import LinearSegmentation, Segment
from .split_merge import find_split_point, merge_pair_area, split_merge

__all__ = [
    "SAPLA",
    "sapla_transform",
    "LineFit",
    "SeriesStats",
    "fit_line",
    "Segment",
    "LinearSegmentation",
    "area_between_lines",
    "increment_area",
    "reconstruction_area",
    "get_max",
    "beta_initialization",
    "beta_merge",
    "beta_split",
    "beta_segment",
    "segment_bound",
    "exact_max_deviation",
    "initialize",
    "initialize_fast",
    "split_merge",
    "find_split_point",
    "merge_pair_area",
    "move_endpoints",
]
