"""Distance measures: Euclidean ground truth, Dist_S/Dist_PAR/Dist_LB/Dist_AE
for adaptive representations, and the equal-length / symbolic lower bounds."""

from .cascade import BoundCascade, PairwiseAccel, QueryCascade, make_pairwise_accel
from .columnar import SegmentColumns
from .dist_ae import dist_ae
from .dist_lb import dist_lb, dist_lb_batch, project_onto_layout
from .dist_par import dist_par, dist_par_batch
from .equal_length import dist_cheby, dist_paa, dist_pla, triangle_lower_bound
from .euclidean import euclidean, euclidean_squared
from .segmentwise import aligned_distance, dist_s
from .suite import ADAPTIVE_METHODS, DistanceSuite, QueryContext, make_suite

__all__ = [
    "euclidean",
    "euclidean_squared",
    "dist_s",
    "aligned_distance",
    "dist_par",
    "dist_par_batch",
    "dist_lb",
    "dist_lb_batch",
    "SegmentColumns",
    "project_onto_layout",
    "dist_ae",
    "dist_pla",
    "dist_paa",
    "dist_cheby",
    "triangle_lower_bound",
    "DistanceSuite",
    "QueryContext",
    "make_suite",
    "ADAPTIVE_METHODS",
    "BoundCascade",
    "QueryCascade",
    "PairwiseAccel",
    "make_pairwise_accel",
]
