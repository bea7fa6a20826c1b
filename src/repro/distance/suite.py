"""Per-method distance dispatch used by the k-NN engine and the DBCH-tree.

A :class:`DistanceSuite` packages, for one reduction method, the distances
indexing needs:

* ``query_bound(ctx, rep)`` — a (lower-bounding where the method admits one)
  estimate of ``Dist(Q, C)`` given the query context and a stored
  representation, used to decide whether a candidate's raw series must be
  fetched (this is what pruning power counts).
* ``pairwise(rep_a, rep_b)`` — a representation-to-representation distance,
  used by the DBCH-tree for its hulls, node splitting and branch picking.
* optionally ``pairwise_batch(rep, columns)`` — ``pairwise(rep, row)``
  against every row of a :class:`~repro.distance.columnar.SegmentColumns`,
  bit-identical to the scalar call: how a DBCH query measures every node
  hull in one pass.  Dist_PAR for the adaptive methods, the aligned kernel
  for PLA, PAA and PAALM; CHEBY and SAX have none.
* optionally ``stack`` / ``query_bound_batch`` — a vectorised form of
  ``query_bound`` over a whole collection at once, used by
  :class:`repro.engine.QueryEngine` to evaluate every candidate bound of a
  query in a few NumPy passes instead of one Python call per entry.
  ``stack`` builds a :class:`~repro.distance.columnar.SegmentColumns` (which
  the database then grows with ``extend``).  Every segment method has one:
  the aligned equal-length methods (PLA, PAA, PAALM) through the kernel
  here, which needs one shared layout; the adaptive ones (SAPLA, APLA,
  APCA) through :func:`~repro.distance.dist_lb.dist_lb_batch`, which is
  bit-identical to ``query_bound``.  CHEBY and SAX have only the scalar
  bound.

Each method has one query bound.  For the adaptive methods it is Dist_LB,
the only one of the paper's adaptive measures that lower-bounds the
Euclidean distance; Dist_PAR (Def. 5.1) is not a lower bound for adaptive
layouts (EXPERIMENTS.md deviation 1), so it serves only as their pairwise
metric, and Dist_AE only where Fig. 10 calls it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..reduction.base import Reducer
from .columnar import SegmentColumns, lane_sum
from .dist_lb import dist_lb, dist_lb_batch
from .dist_par import dist_par, dist_par_batch
from .equal_length import dist_cheby, dist_paa, dist_pla
from .segmentwise import aligned_distance

__all__ = ["QueryContext", "DistanceSuite", "make_suite", "ADAPTIVE_METHODS"]

#: the methods the paper treats as adaptive-length (Dist_PAR family)
ADAPTIVE_METHODS = ("SAPLA", "APLA", "APCA")


class QueryContext:
    """Everything the distance functions may need about the query.

    ``representation`` is the query's reduction.  Pass it when it is already
    in hand; otherwise pass ``reducer`` and it is computed on first access —
    a bound that reads only the raw series (Dist_LB) then never
    reduces the query at all, and every other path reduces it exactly once.
    """

    __slots__ = ("series", "_representation", "_reducer")

    def __init__(
        self,
        series: np.ndarray,
        representation: Any = None,
        reducer: "Optional[Reducer]" = None,
    ):
        self.series = series
        self._representation = representation
        self._reducer = reducer

    @property
    def representation(self) -> Any:
        if self._representation is None and self._reducer is not None:
            self._representation = self._reducer.transform(self.series)
        return self._representation


@dataclass(frozen=True)
class DistanceSuite:
    """Distances for one method (see module docstring)."""

    method: str
    #: the query bound's family — ``"lb"``, ``"aligned"``, ``"triangle"`` or
    #: ``"mindist"`` — which keys the cascade tier and the pruning counter
    mode: str
    query_bound: Callable[[QueryContext, Any], float]
    pairwise: Callable[[Any, Any], float]
    #: build a stacked layout of many representations for the batch bound
    stack: "Optional[Callable[[Sequence[Any]], Any]]" = None
    #: vectorised ``query_bound`` over a stacked layout; returns one bound
    #: per stacked representation
    query_bound_batch: "Optional[Callable[[QueryContext, Any], np.ndarray]]" = None
    #: vectorised ``pairwise(rep, ·)`` over a stacked layout
    pairwise_batch: "Optional[Callable[[Any, Any], np.ndarray]]" = None


# ----------------------------------------------------------------------
# stacked (vectorised) aligned bounds
# ----------------------------------------------------------------------
def _stack_aligned(representations: "Sequence[Any]") -> SegmentColumns:
    """Stack aligned segmentations; they must share one segment layout.

    The aligned methods guarantee a shared layout for equal-length
    collections, so every row's Dist_S constants equal row 0's.
    """
    columns = SegmentColumns(representations)
    if not columns.uniform:
        raise ValueError("stacked representations must share one segment layout")
    return columns


def _aligned_bound_batch(rep_q, columns: SegmentColumns) -> np.ndarray:
    """Vectorised Dist_PLA / Dist_PAA of ``rep_q`` against every stacked
    representation, bit-identical to :func:`aligned_distance` per row."""
    if not columns.uniform or rep_q.right_endpoints != columns.ends[0].tolist():
        raise ValueError("query representation does not match the stacked layout")
    qa = np.array([seg.a for seg in rep_q], dtype=float)
    qb = np.array([seg.b for seg in rep_q], dtype=float)
    da = qa[None, :] - columns.slopes
    db = qb[None, :] - columns.intercepts
    c3, c2, c1 = columns.c3[0], columns.c2[0], columns.c1[0]
    total = lane_sum(c3 * da * da + c2 * da * db + c1 * db * db)
    return np.sqrt(np.maximum(total, 0.0))


def _aligned_query_batch(ctx: QueryContext, columns: SegmentColumns) -> np.ndarray:
    """The aligned kernel as a query bound: the query's own reduction."""
    return _aligned_bound_batch(ctx.representation, columns)


def make_suite(reducer: Reducer) -> DistanceSuite:
    """Build the distance suite for ``reducer``.

    The adaptive methods bound queries with Dist_LB, read from the raw
    query alone, and measure representations against each other with
    Dist_PAR; the equal-length methods use their aligned distance for both.
    """
    name = reducer.name
    if name in ADAPTIVE_METHODS:
        return DistanceSuite(
            method=name,
            mode="lb",
            query_bound=lambda ctx, rep: dist_lb(ctx.series, rep),
            pairwise=dist_par,
            stack=SegmentColumns,
            query_bound_batch=lambda ctx, columns: dist_lb_batch(ctx.series, columns),
            pairwise_batch=dist_par_batch,
        )
    if name == "PLA":
        return DistanceSuite(
            method=name,
            mode="aligned",
            query_bound=lambda ctx, rep: dist_pla(ctx.representation, rep),
            pairwise=dist_pla,
            stack=_stack_aligned,
            query_bound_batch=_aligned_query_batch,
            pairwise_batch=_aligned_bound_batch,
        )
    if name in ("PAA", "PAALM"):
        return DistanceSuite(
            method=name,
            mode="aligned",
            query_bound=lambda ctx, rep: dist_paa(ctx.representation, rep),
            pairwise=dist_paa,
            stack=_stack_aligned,
            query_bound_batch=_aligned_query_batch,
            pairwise_batch=_aligned_bound_batch,
        )
    if name == "CHEBY":
        return DistanceSuite(
            method=name,
            mode="triangle",
            query_bound=lambda ctx, rep: dist_cheby(reducer, ctx.representation, rep),
            pairwise=lambda a, b: dist_cheby(reducer, a, b),
        )
    if name == "SAX":
        return DistanceSuite(
            method=name,
            mode="mindist",
            query_bound=lambda ctx, rep: reducer.mindist(ctx.representation, rep),
            pairwise=reducer.mindist,
        )
    raise ValueError(f"no distance suite for method {name!r}")
