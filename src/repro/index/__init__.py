"""Index structures (R-tree, DBCH-tree) and GEMINI k-NN search."""

from .bulk import bulk_load_dbch, bulk_load_rtree
from .dbch import DBCHNode, DBCHTree
from .entries import Entry
from .knn import KNNResult, SeriesDatabase, linear_scan
from .mbr import Box, feature_vector, feature_weights
from .rtree import RTree, RTreeNode
from .stats import dbch_overlap, leaf_fill, rtree_overlap

__all__ = [
    "Entry",
    "Box",
    "feature_vector",
    "feature_weights",
    "RTree",
    "RTreeNode",
    "DBCHTree",
    "DBCHNode",
    "KNNResult",
    "SeriesDatabase",
    "linear_scan",
    "bulk_load_rtree",
    "bulk_load_dbch",
    "rtree_overlap",
    "dbch_overlap",
    "leaf_fill",
]
