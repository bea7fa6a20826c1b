"""Bulk loading for the R-tree (STR packing) and the DBCH-tree.

Incremental insertion is what the paper measures (Fig. 14a), so
``SeriesDatabase.ingest`` keeps it as its default and the paper-figure
paths grow their trees that way.  A database building a tree over a whole
entry set at once wants packed trees instead: better fill factors, far
fewer node splits, and no insert-path distance memo.  Every rebuild of an
entry set that is already known packs:

* ``ingest(..., bulk=True)``;
* a reopen (``repro.io.open_database``, memory and disk homes), once,
  after the write-ahead log has been replayed into the entries;
* compaction (``repro.lifecycle.compact``);
* partitioning into shards and the sharded crash repair
  (``repro.serving.sharding``).

Each of those builds exactly the tree ``ingest(live rows, representations,
live_ids, bulk=True)`` builds over the same live entries in id order.

* R-tree: Sort-Tile-Recursive (Leutenegger et al. 1997) — sort by the first
  feature dimension, tile into vertical slabs, sort each slab by the second
  dimension, pack leaves at full fill, recurse upward.
* DBCH-tree: distance-ordered packing — entries are ordered by their
  distance to a pivot representation (farthest-point heuristic), packed into
  consecutive full leaves, and parents are packed the same way over child
  anchors.  All geometry stays on the representation distance, matching the
  incremental tree's invariants.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

import numpy as np

from .. import obs
from .dbch import DBCHNode, DBCHTree
from .entries import Entry
from .rtree import RTree, RTreeNode

__all__ = ["bulk_load_rtree", "bulk_load_dbch"]


def _pack(items: list, capacity: int) -> "List[list]":
    """Split ``items`` into consecutive groups of at most ``capacity``,
    avoiding a trailing group smaller than 2 where possible."""
    groups = [items[i : i + capacity] for i in range(0, len(items), capacity)]
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-2], groups[-1] = groups[-2][:-1], groups[-2][-1:] + groups[-1]
    return groups


def bulk_load_rtree(
    entries: "Sequence[Entry]", max_entries: int = 5, min_entries: int = 2
) -> RTree:
    """Build a packed R-tree over ``entries`` with STR tiling."""
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    entries = list(entries)
    if not entries:
        return tree
    if any(e.feature is None for e in entries):
        raise ValueError("R-tree bulk load needs feature vectors on every entry")

    # STR: slabs along dim 0, runs along dim 1 (or dim 0 again if 1-D)
    dims = len(entries[0].feature)
    ordered = sorted(entries, key=lambda e: float(e.feature[0]))
    n_leaves = math.ceil(len(ordered) / max_entries)
    slab_count = max(int(math.ceil(math.sqrt(n_leaves))), 1)
    slab_size = math.ceil(len(ordered) / slab_count)
    second = 1 if dims > 1 else 0
    leaf_groups: "List[list]" = []
    for i in range(0, len(ordered), slab_size):
        slab = sorted(ordered[i : i + slab_size], key=lambda e: float(e.feature[second]))
        leaf_groups.extend(_pack(slab, max_entries))

    level: "List[RTreeNode]" = []
    for group in leaf_groups:
        node = RTreeNode(is_leaf=True)
        node.entries = group
        node.recompute_box()
        level.append(node)
    while len(level) > 1:
        level.sort(key=lambda n: tuple(n.box.mins))
        parents = []
        for group in _pack(level, max_entries):
            parent = RTreeNode(is_leaf=False)
            parent.children = group
            for child in group:
                child.parent = parent
            parent.recompute_box()
            parents.append(parent)
        level = parents
    tree.root = level[0]
    tree.size = len(entries)
    return tree


def _farthest_from(entries: "Sequence[Entry]", distance: Callable, seed_rep, accel) -> Entry:
    """The entry farthest from ``seed_rep`` (first one wins ties, as ``max``).

    With a metric :class:`repro.distance.PairwiseAccel`, candidates whose
    norm-tier triangle upper bound certainly cannot exceed the running
    maximum skip the forced pairwise evaluation.  The replace rule is strict
    ``>``, so the winner is identical to the full scan.
    """
    if accel is None or not accel.metric:
        return max(entries, key=lambda e: distance(seed_rep, e.representation))
    best = -math.inf
    best_entry = entries[0]
    skipped = 0
    for entry in entries:
        if accel.certainly_not_above(accel.upper(seed_rep, entry.representation), best):
            skipped += 1
            continue
        d = distance(seed_rep, entry.representation)
        if d > best:
            best, best_entry = d, entry
    if skipped and obs.is_enabled():
        obs.count("cascade.pairwise_skipped", skipped)
    return best_entry


def bulk_load_dbch(
    entries: "Sequence[Entry]",
    distance: Callable,
    max_entries: int = 5,
    min_entries: int = 2,
    accel=None,
) -> DBCHTree:
    """Build a packed DBCH-tree over ``entries`` with distance ordering.

    ``accel`` is an optional :class:`repro.distance.PairwiseAccel`; it lets
    the hull recomputations skip forced pairwise evaluations and does not
    change the resulting tree.
    """
    tree = DBCHTree(distance, max_entries=max_entries, min_entries=min_entries, accel=accel)
    entries = list(entries)
    if not entries:
        return tree

    # farthest-point pivot: order entries by distance from the entry most
    # distant to an arbitrary seed, so consecutive entries are similar
    seed_rep = entries[0].representation
    pivot = _farthest_from(entries, distance, seed_rep, accel)
    keyed = sorted(entries, key=lambda e: distance(pivot.representation, e.representation))

    level: "List[DBCHNode]" = []
    for group in _pack(keyed, max_entries):
        node = DBCHNode(is_leaf=True)
        node.entries = group
        node.recompute_hull(distance, accel)
        level.append(node)
    while len(level) > 1:
        level.sort(key=lambda n: distance(pivot.representation, n.hull[0]))
        parents = []
        for group in _pack(level, max_entries):
            parent = DBCHNode(is_leaf=False)
            parent.children = group
            for child in group:
                child.parent = parent
            parent.recompute_hull(distance, accel)
            parents.append(parent)
        level = parents
    tree.root = level[0]
    tree.size = len(entries)
    return tree
