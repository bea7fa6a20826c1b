"""iSAX — the indexable Symbolic Aggregate approXimation tree.

The paper's related work (Camerra et al., iSAX2+) indexes billions of series
with variable-cardinality SAX words; this module implements the classic
iSAX tree as a native index for symbolic representations, complementing the
R-tree/DBCH structures.

Key property exploited: Gaussian breakpoints at the quantiles ``i / 2^b``
are *nested* across power-of-two cardinalities, so a symbol at ``b`` bits is
exactly the first ``b`` bits of the symbol at any higher precision.  A node
refines one dimension by one bit when it splits; descendants share the
parent's word prefix.

Search follows GEMINI: best-first over nodes ordered by MINDIST_iSAX (a true
lower bound of the Euclidean distance for z-normalised series), PAA-distance
filtering at the leaves, raw verification on top.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distance.euclidean import euclidean
from ..index.knn import KNNResult
from ..reduction.base import equal_length_bounds

__all__ = ["ISAXIndex"]


def _breakpoints(bits: int) -> np.ndarray:
    """The ``2^bits - 1`` nested Gaussian breakpoints for this cardinality."""
    from scipy.stats import norm  # at the call site, as in reduction/sax.py

    cells = 1 << bits
    return norm.ppf(np.arange(1, cells) / cells)


@dataclass(frozen=True)
class _Word:
    """An iSAX word: per-dimension symbols at per-dimension bit depths."""

    symbols: Tuple[int, ...]
    bits: Tuple[int, ...]

    def matches(self, full_symbols: np.ndarray, max_bits: int) -> bool:
        """Whether a full-precision symbol vector falls under this word."""
        for sym, b, full in zip(self.symbols, self.bits, full_symbols):
            if (int(full) >> (max_bits - b)) != sym:
                return False
        return True

    def refined(self, dim: int, bit: int) -> "_Word":
        """The child word with dimension ``dim`` refined by one more bit."""
        symbols = list(self.symbols)
        bits = list(self.bits)
        symbols[dim] = (symbols[dim] << 1) | bit
        bits[dim] += 1
        return _Word(tuple(symbols), tuple(bits))


class _Node:
    def __init__(self, word: _Word):
        self.word = word
        self.is_leaf = True
        self.entries: "List[tuple[int, np.ndarray, np.ndarray]]" = []  # (id, paa, full_syms)
        self.children: "Dict[_Word, _Node]" = {}


class ISAXIndex:
    """An iSAX tree over equal-length, z-normalised time series.

    Args:
        n_segments: PAA word length (dimensions of the SAX word).
        base_bits: cardinality (in bits) of the root's children.
        max_bits: full precision; also the refinement ceiling.
        leaf_capacity: entries a leaf holds before splitting.
    """

    def __init__(
        self,
        n_segments: int = 8,
        base_bits: int = 1,
        max_bits: int = 8,
        leaf_capacity: int = 10,
    ):
        if not 1 <= base_bits <= max_bits:
            raise ValueError("need 1 <= base_bits <= max_bits")
        if n_segments < 1 or leaf_capacity < 2:
            raise ValueError("invalid iSAX parameters")
        self.n_segments = n_segments
        self.base_bits = base_bits
        self.max_bits = max_bits
        self.leaf_capacity = leaf_capacity
        self._full_breakpoints = _breakpoints(max_bits)
        self._roots: "Dict[_Word, _Node]" = {}
        self.data: Optional[np.ndarray] = None
        self._bounds = None
        self.size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def ingest(self, data: np.ndarray) -> None:
        """Index every row of ``data`` (shape ``(count, n)``)."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("ingest expects a (count, n) array of series")
        self.data = data
        self._bounds = equal_length_bounds(data.shape[1], self.n_segments)
        for series_id, series in enumerate(data):
            self._insert(series_id, series)

    def _paa(self, series: np.ndarray) -> np.ndarray:
        return np.array([series[s : e + 1].mean() for s, e in self._bounds])

    def _full_symbols(self, paa: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._full_breakpoints, paa)

    def _insert(self, series_id: int, series: np.ndarray) -> None:
        paa = self._paa(series)
        full = self._full_symbols(paa)
        root_word = _Word(
            symbols=tuple(int(s) >> (self.max_bits - self.base_bits) for s in full),
            bits=(self.base_bits,) * self.n_segments,
        )
        node = self._roots.setdefault(root_word, _Node(root_word))
        while not node.is_leaf:
            child = self._matching_child(node, full)
            node = child
        node.entries.append((series_id, paa, full))
        self.size += 1
        if len(node.entries) > self.leaf_capacity:
            self._split(node)

    def _matching_child(self, node: _Node, full: np.ndarray) -> _Node:
        for word, child in node.children.items():
            if word.matches(full, self.max_bits):
                return child
        # the refined dimension's missing branch: create it lazily
        dim = self._split_dim_of(node)
        bit = (int(full[dim]) >> (self.max_bits - node.word.bits[dim] - 1)) & 1
        word = node.word.refined(dim, bit)
        child = _Node(word)
        node.children[word] = child
        return child

    def _split_dim_of(self, node: _Node) -> int:
        """The dimension an internal node refined (any child reveals it)."""
        child_word = next(iter(node.children))
        for dim, (a, b) in enumerate(zip(child_word.bits, node.word.bits)):
            if a != b:
                return dim
        raise RuntimeError("internal node without a refined dimension")

    def _split(self, node: _Node) -> None:
        """Refine the most balanced splittable dimension by one bit."""
        best_dim, best_balance = None, -1.0
        for dim in range(self.n_segments):
            bits = node.word.bits[dim]
            if bits >= self.max_bits:
                continue
            shift = self.max_bits - bits - 1
            ones = sum((int(full[dim]) >> shift) & 1 for _, _, full in node.entries)
            balance = min(ones, len(node.entries) - ones)
            if balance > best_balance:
                best_dim, best_balance = dim, balance
        if best_dim is None:
            return  # fully refined: the leaf simply grows (iSAX's overflow leaf)
        node.is_leaf = False
        entries, node.entries = node.entries, []
        shift = self.max_bits - node.word.bits[best_dim] - 1
        for bit in (0, 1):
            word = node.word.refined(best_dim, bit)
            node.children[word] = _Node(word)
        for entry in entries:
            bit = (int(entry[2][best_dim]) >> shift) & 1
            word = node.word.refined(best_dim, bit)
            child = node.children[word]
            child.entries.append(entry)
        # a degenerate split (all entries on one side) recurses on the full child
        for child in list(node.children.values()):
            if len(child.entries) > self.leaf_capacity:
                self._split(child)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _mindist_word(self, query_paa: np.ndarray, word: _Word) -> float:
        """MINDIST_iSAX: lower bound of Euclid(query, any series under word)."""
        total = 0.0
        for value, sym, bits, (s, e) in zip(query_paa, word.symbols, word.bits, self._bounds):
            breakpoints = _breakpoints(bits)
            lo = -np.inf if sym == 0 else breakpoints[sym - 1]
            hi = np.inf if sym == (1 << bits) - 1 else breakpoints[sym]
            if value < lo:
                gap = lo - value
            elif value > hi:
                gap = value - hi
            else:
                gap = 0.0
            total += (e - s + 1) * gap * gap
        return float(np.sqrt(total))

    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """Exact-within-bound best-first k-NN (GEMINI over the iSAX tree)."""
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        query = np.asarray(query, dtype=float)
        query_paa = self._paa(query)
        counter = itertools.count()
        frontier: list = [
            (self._mindist_word(query_paa, word), next(counter), "node", node)
            for word, node in self._roots.items()
        ]
        heapq.heapify(frontier)
        best: "List[tuple[float, int]]" = []
        verified = 0
        while frontier:
            dist, _, kind, payload = heapq.heappop(frontier)
            if len(best) == k and dist >= -best[0][0]:
                break
            if kind == "entry":
                series_id = payload
                true = euclidean(query, self.data[series_id])
                verified += 1
                heapq.heappush(best, (-true, series_id))
                if len(best) > k:
                    heapq.heappop(best)
                continue
            node = payload
            if node.is_leaf:
                lengths = np.array([e - s + 1 for s, e in self._bounds], dtype=float)
                for series_id, paa, _ in node.entries:
                    bound = float(np.sqrt((lengths * (query_paa - paa) ** 2).sum()))
                    heapq.heappush(frontier, (bound, next(counter), "entry", series_id))
            else:
                for word, child in node.children.items():
                    heapq.heappush(
                        frontier,
                        (self._mindist_word(query_paa, word), next(counter), "node", child),
                    )
        ranked = sorted((-d, sid) for d, sid in best)
        return KNNResult(
            ids=[sid for _, sid in ranked],
            distances=[d for d, _ in ranked],
            n_verified=verified,
            n_total=self.size,
        )

    def approximate_search(self, query: np.ndarray) -> "List[int]":
        """iSAX's cheap approximate search: descend to the matching leaf."""
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        query = np.asarray(query, dtype=float)
        full = self._full_symbols(self._paa(query))
        root_word = _Word(
            symbols=tuple(int(s) >> (self.max_bits - self.base_bits) for s in full),
            bits=(self.base_bits,) * self.n_segments,
        )
        node = self._roots.get(root_word)
        if node is None:
            return []
        while not node.is_leaf:
            matched = None
            for word, child in node.children.items():
                if word.matches(full, self.max_bits):
                    matched = child
                    break
            if matched is None:
                break
            node = matched
        if node.is_leaf:
            return [series_id for series_id, _, _ in node.entries]
        # descended to an internal node without a matching branch: gather leaves
        ids: "List[int]" = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                ids.extend(series_id for series_id, _, _ in current.entries)
            else:
                stack.extend(current.children.values())
        return ids

    # ------------------------------------------------------------------
    def node_counts(self) -> "dict[str, int]":
        """Internal / leaf / total node counts."""
        internal = leaf = 0
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf += 1
            else:
                internal += 1
                stack.extend(node.children.values())
        return {"internal": internal, "leaf": leaf, "total": internal + leaf}

    def __len__(self) -> int:
        return self.size
