"""DBCH-tree — Distance Based Covering with Convex Hull (paper Secs. 5.2, 5.3).

Instead of axis-aligned MBRs over APCA-style feature points, every node is
covered by the *pair of representations with the maximum pairwise distance*
among its members (the "convex hull" ``(u, l)``); the pair's distance is the
node's volume.  All geometry — branch picking, node splitting, query-to-node
distances — runs on the representation-level distance (Dist_PAR for the
adaptive methods), which removes the MBR overlap problem for homogeneous
adaptive-length representations.

Distance of a query to a node (paper Sec. 5.3): zero when the query sits
within the hull (both hull distances below the volume); otherwise the excess
of the smaller hull distance over the volume.  As the paper notes, internal
nodes do not guarantee the lower-bounding lemma — the k-NN engine treats
node distances as navigation hints and verifies candidates on raw data.
A query reads every node's key from one batch pass over the stacked hull
pairs (:meth:`DBCHTree.node_keys`); :meth:`DBCHTree.node_distance` is the
same rule for one node.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from .. import obs
from ..distance.columnar import SegmentColumns
from .entries import Entry

__all__ = ["DBCHTree", "DBCHNode"]

PairwiseDistance = Callable[[object, object], float]


class DBCHNode:
    """One DBCH-tree node: members plus the covering hull ``(u, l)``."""

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: "List[Entry]" = []
        self.children: "List[DBCHNode]" = []
        self.parent: Optional["DBCHNode"] = None
        self.hull: "tuple[object, object] | None" = None  # (u, l) representations
        self.volume: float = 0.0

    def items(self) -> list:
        """The node's members: entries for leaves, children otherwise."""
        return self.entries if self.is_leaf else self.children

    def member_representations(self) -> list:
        """Representations this node's hull must cover.

        For leaves: every entry.  For internal nodes: only the children's
        hull members (the paper's economy for internal nodes).
        """
        if self.is_leaf:
            return [e.representation for e in self.entries]
        reps = []
        for child in self.children:
            if child.hull is not None:
                reps.extend(child.hull)
        return reps

    def recompute_hull(self, distance: PairwiseDistance, accel=None) -> None:
        """Recompute the covering pair ``(u, l)`` and its volume.

        With a metric :class:`repro.distance.PairwiseAccel` the max-scan
        first measures the anchor row ``d(reps[0], reps[j])`` — exactly the
        baseline scan's ``i == 0`` pairs — then skips any later pair whose
        triangle upper bound ``d0[i] + d0[j]`` certainly cannot exceed the
        running maximum.  The replace rule is strict ``>``, so skipping
        certainly-not-above pairs leaves the winning pair (ties included)
        identical to the full scan.
        """
        obs.count("dbch.hull_recomputations")
        reps = self.member_representations()
        if len(reps) == 1:
            self.hull = (reps[0], reps[0])
            self.volume = 0.0
            return
        best, pair = -1.0, (reps[0], reps[0])
        if accel is not None and accel.metric and len(reps) > 2:
            d0 = [0.0] * len(reps)
            for j in range(1, len(reps)):
                d = distance(reps[0], reps[j])
                d0[j] = d
                if d > best:
                    best, pair = d, (reps[0], reps[j])
            skipped = 0
            for i in range(1, len(reps)):
                for j in range(i + 1, len(reps)):
                    if accel.certainly_not_above(d0[i] + d0[j], best):
                        skipped += 1
                        continue
                    d = distance(reps[i], reps[j])
                    if d > best:
                        best, pair = d, (reps[i], reps[j])
            if skipped and obs.is_enabled():
                obs.count("cascade.pairwise_skipped", skipped)
        else:
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    d = distance(reps[i], reps[j])
                    if d > best:
                        best, pair = d, (reps[i], reps[j])
        self.hull = pair
        self.volume = max(best, 0.0)


class DBCHTree:
    """Distance-based covering tree with the same fill factors as the R-tree."""

    def __init__(
        self,
        distance: PairwiseDistance,
        max_entries: int = 5,
        min_entries: int = 2,
        accel=None,
    ):
        if not 1 <= min_entries <= max_entries // 2 + 1:
            raise ValueError("min_entries must be at most about half of max_entries")
        self.distance = distance
        self.max_entries = max_entries
        self.min_entries = min_entries
        #: optional :class:`repro.distance.PairwiseAccel` — norm lower bounds
        #: (and, for metric modes, triangle upper bounds) that let the build
        #: skip pairwise evaluations whose outcome is already forced; the
        #: resulting tree is identical to the unaccelerated one.
        self.accel = accel
        self.root = DBCHNode(is_leaf=True)
        self.size = 0
        #: build-path distance memo: every insert recomputes its leaf's (and
        #: ancestors') hulls, re-evaluating almost exclusively pairs already
        #: measured on the previous insert.  Values are cached per object
        #: pair (strong references pin the ids), so maintenance replays the
        #: exact float — the tree is bit-identical to the uncached one.  The
        #: query path (:meth:`node_distance`) stays uncached: query
        #: representations are transient and would only grow the memo.
        self._memo: "dict[tuple[int, int], tuple[object, object, float]]" = {}
        #: ``(stacked hulls, volumes, hull-less node count)`` behind
        #: :meth:`node_keys`; built on first use, dropped by every mutation
        self._hulls = None

    #: ~250 B an entry, so ~4 MB at most; an insert adds ~40 entries (most of
    #: them branch-picking pairs never read again), and clearing only costs
    #: recomputation: ~10 % more pairwise calls per insert than an unbounded memo
    _MEMO_LIMIT = 1 << 14

    def _dist(self, rep_a, rep_b) -> float:
        key = (id(rep_a), id(rep_b))
        hit = self._memo.get(key)
        if hit is not None and hit[0] is rep_a and hit[1] is rep_b:
            return hit[2]
        d = self.distance(rep_a, rep_b)
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (rep_a, rep_b, d)
        return d

    # ------------------------------------------------------------------
    # insertion (branch picking = minimum distance increase)
    # ------------------------------------------------------------------
    def insert(self, entry: Entry) -> None:
        """Insert one entry, growing hulls and splitting on overflow."""
        obs.count("dbch.inserts")
        self._hulls = None
        leaf = self._choose_leaf(self.root, entry.representation)
        leaf.entries.append(entry)
        self._adjust_upwards(leaf)
        self.size += 1

    def _hull_increase(self, node: DBCHNode, representation) -> float:
        if node.hull is None:
            return 0.0
        u, l = node.hull
        reach = max(self._dist(representation, u), self._dist(representation, l))
        return max(0.0, reach - node.volume)

    def _choose_leaf(self, node: DBCHNode, representation) -> DBCHNode:
        """Descend to the leaf with minimal ``(hull increase, volume)`` key.

        The accelerated path skips a child when a certain lower bound on its
        hull increase already exceeds the current best increase — such a
        child cannot win regardless of its volume tie-break.  Replacement
        stays strict ``<``, preserving ``min()``'s first-minimum tie rule.
        """
        accel = self.accel
        while not node.is_leaf:
            best_key = None
            best_child = None
            skipped = 0
            for child in node.children:
                if accel is not None and best_key is not None and child.hull is not None:
                    u, l = child.hull
                    reach_low = max(
                        accel.lower(representation, u), accel.lower(representation, l)
                    )
                    if max(0.0, reach_low - child.volume) > best_key[0]:
                        skipped += 2  # both hull-member distance calls avoided
                        continue
                key = (self._hull_increase(child, representation), child.volume)
                if best_key is None or key < best_key:
                    best_key, best_child = key, child
            if skipped and obs.is_enabled():
                obs.count("cascade.pairwise_skipped", skipped)
            node = best_child
        return node

    def _adjust_upwards(self, node: DBCHNode) -> None:
        while node is not None:
            if len(node.items()) > self.max_entries:
                self._split(node)
                return
            node.recompute_hull(self._dist, self.accel)
            node = node.parent

    # ------------------------------------------------------------------
    # deletion (condense + hull recomputation)
    # ------------------------------------------------------------------
    def delete(self, series_id: int) -> bool:
        """Remove the entry with ``series_id``; returns whether it was found."""
        found = self._find_leaf(self.root, series_id)
        if found is None:
            return False
        leaf, entry = found
        self._hulls = None
        leaf.entries.remove(entry)
        self.size -= 1
        obs.count("dbch.deletes")
        self._condense(leaf)
        return True

    def _find_leaf(self, node: DBCHNode, series_id: int):
        if node.is_leaf:
            for entry in node.entries:
                if entry.series_id == series_id:
                    return node, entry
            return None
        for child in node.children:
            found = self._find_leaf(child, series_id)
            if found is not None:
                return found
        return None

    def _condense(self, node: DBCHNode) -> None:
        orphans: "List[Entry]" = []
        while node.parent is not None:
            parent = node.parent
            if len(node.items()) < self.min_entries:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            else:
                node.recompute_hull(self._dist, self.accel)
            node = parent
        if node.items():
            node.recompute_hull(self._dist, self.accel)
        if not node.is_leaf and len(node.children) == 1:
            self.root = node.children[0]
            self.root.parent = None
        elif not node.is_leaf and not node.children:
            self.root = DBCHNode(is_leaf=True)
        for orphan in orphans:
            self.size -= 1  # insert() re-increments
            self.insert(orphan)

    @staticmethod
    def _collect_entries(node: DBCHNode) -> "List[Entry]":
        out: "List[Entry]" = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                out.extend(current.entries)
            else:
                stack.extend(current.children)
        return out

    # ------------------------------------------------------------------
    # node splitting (seeds = maximum pairwise distance; paper Sec. 5.3)
    # ------------------------------------------------------------------
    def _split(self, node: DBCHNode) -> None:
        obs.count("dbch.splits")
        items = node.items()
        reps = [
            item.representation if node.is_leaf else _node_anchor(item) for item in items
        ]
        seed_a, seed_b = self._pick_seeds(reps)
        groups = ([items[seed_a]], [items[seed_b]])
        anchors = (reps[seed_a], reps[seed_b])
        rest = [i for i in range(len(items)) if i not in (seed_a, seed_b)]
        for i in rest:
            remaining = len(rest) - (len(groups[0]) + len(groups[1]) - 2)
            if len(groups[0]) + remaining <= self.min_entries:
                target = 0
            elif len(groups[1]) + remaining <= self.min_entries:
                target = 1
            else:
                d0 = self._dist(reps[i], anchors[0])
                d1 = self._dist(reps[i], anchors[1])
                target = int(d1 < d0)
            groups[target].append(items[i])

        sibling = DBCHNode(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries, sibling.entries = groups
        else:
            node.children, sibling.children = groups
            for child in sibling.children:
                child.parent = sibling
            for child in node.children:
                child.parent = node
        node.recompute_hull(self._dist, self.accel)
        sibling.recompute_hull(self.distance, self.accel)

        if node.parent is None:
            new_root = DBCHNode(is_leaf=False)
            new_root.children = [node, sibling]
            node.parent = sibling.parent = new_root
            new_root.recompute_hull(self._dist, self.accel)
            self.root = new_root
        else:
            parent = node.parent
            sibling.parent = parent
            parent.children.append(sibling)
            self._adjust_upwards(parent)

    def _pick_seeds(self, reps: list) -> "tuple[int, int]":
        accel = self.accel
        worst, pair = -1.0, (0, 1)
        if accel is not None and accel.metric and len(reps) > 2:
            # same anchor-row + triangle-upper-bound scheme as recompute_hull
            d0 = [0.0] * len(reps)
            for j in range(1, len(reps)):
                d = self._dist(reps[0], reps[j])
                d0[j] = d
                if d > worst:
                    worst, pair = d, (0, j)
            skipped = 0
            for i in range(1, len(reps)):
                for j in range(i + 1, len(reps)):
                    if accel.certainly_not_above(d0[i] + d0[j], worst):
                        skipped += 1
                        continue
                    d = self._dist(reps[i], reps[j])
                    if d > worst:
                        worst, pair = d, (i, j)
            if skipped and obs.is_enabled():
                obs.count("cascade.pairwise_skipped", skipped)
            return pair
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                d = self._dist(reps[i], reps[j])
                if d > worst:
                    worst, pair = d, (i, j)
        return pair

    # ------------------------------------------------------------------
    # search support
    # ------------------------------------------------------------------
    def node_distance(self, query_representation, node: DBCHNode) -> float:
        """Dist(q, DBCH) of paper Sec. 5.3."""
        if node.hull is None:
            return 0.0
        u, l = node.hull
        du = self.distance(query_representation, u)
        dl = self.distance(query_representation, l)
        if du <= node.volume and dl <= node.volume:
            return 0.0
        return max(0.0, min(du, dl) - node.volume)

    def node_keys(self, query_representation, distance_batch) -> "List[float]":
        """:meth:`node_distance` of every node at once, indexed by ``node.slot``
        (assigned to every node when the hull store is built).

        ``distance_batch(q, columns)`` is :attr:`distance` from ``q`` to every
        row of a :class:`~repro.distance.columnar.SegmentColumns`,
        bit-identical to the scalar call (the suite's ``pairwise_batch``).
        The hull pairs are stacked once and reused by every query until an
        insert or delete drops them; the rule is applied element-wise with
        :meth:`node_distance`'s comparisons and operations, so each key
        equals it to the bit.  A node without a hull keys 0.0.
        """
        store = self._hulls
        if store is None:
            store = self._hulls = self._stack_hulls()
        columns, volumes, unhulled = store
        keys: "List[float]" = []
        if columns is not None:
            both = distance_batch(query_representation, columns)
            du, dl = both[0::2], both[1::2]
            inside = (du <= volumes) & (dl <= volumes)
            outside = np.maximum(0.0, np.minimum(du, dl) - volumes)
            keys = np.where(inside, 0.0, outside).tolist()
        return keys + [0.0] * unhulled

    def _stack_hulls(self):
        """Number every node (hulled ones first) and stack their ``(u, l)``."""
        nodes = list(self.iter_nodes())
        hulled = [node for node in nodes if node.hull is not None]
        bare = [node for node in nodes if node.hull is None]
        for slot, node in enumerate(hulled + bare):
            node.slot = slot
        if not hulled:
            return None, None, len(bare)
        columns = SegmentColumns([rep for node in hulled for rep in node.hull])
        return columns, np.array([node.volume for node in hulled]), len(bare)

    # ------------------------------------------------------------------
    # statistics (paper Figs. 15, 16)
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[DBCHNode]:
        """Depth-first iteration over every node."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    @property
    def height(self) -> int:
        height, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_counts(self) -> "dict[str, int]":
        """Internal / leaf / total node counts (paper Figs. 15, 16)."""
        internal = leaf = 0
        for node in self.iter_nodes():
            if node.is_leaf:
                leaf += 1
            else:
                internal += 1
        return {"internal": internal, "leaf": leaf, "total": internal + leaf}

    def __len__(self) -> int:
        return self.size


def _node_anchor(node: DBCHNode):
    """A representative representation for an internal child (hull member)."""
    if node.hull is None:
        raise ValueError("child node has no hull")
    return node.hull[0]
