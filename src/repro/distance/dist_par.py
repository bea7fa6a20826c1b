"""Dist_PAR — the paper's partition-based distance (Definition 5.1).

Both adaptive-length representations are refined onto the union ``R`` of
their right endpoints; after the partition the segments align pairwise and
Dist_PAR is the square root of the summed Dist_S values — equivalently, the
Euclidean distance between the two full reconstructions.

Tightness: Dist_PAR uses both reconstructions at full fidelity, so it is
always at least as tight as Dist_LB (paper Sec. A.6) and far tighter than
APCA-style bounds on heterogeneous layouts.

Lower-bounding caveat (documented deviation from the paper): the proof in
paper Sec. A.5 implicitly treats each partitioned piece as the least-squares
fit of the underlying sub-window, but partitioning only *restricts* the
parent line.  Two very close series reduced with *different* segment layouts
can therefore yield ``Dist_PAR`` marginally above the true Euclidean
distance (take ``Q == C`` with different segmentations: the true distance is
0 while the reconstructions differ).  In practice segmentations of similar
series agree and Dist_PAR behaves as a tight near-lower bound — the property
the DBCH-tree exploits; :func:`repro.distance.dist_lb.dist_lb` is the
measure with the unconditional guarantee.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.segment import LinearSegmentation
from .columnar import SegmentColumns, lane_sum

__all__ = ["dist_par", "dist_par_batch"]


def _segment_arrays(rep: LinearSegmentation):
    """Per-representation ``(ends, starts, a, b)`` arrays, cached on the object.

    The DBCH-tree evaluates Dist_PAR between the same representations many
    times over (hull recomputation, subtree adjustment, query descent), so
    the flat views amortise to one extraction per representation lifetime.
    """
    arrays = getattr(rep, "_par_arrays", None)
    if arrays is None:
        n = rep.n_segments
        ends = np.fromiter((seg.end for seg in rep), dtype=np.int64, count=n)
        starts = np.fromiter((seg.start for seg in rep), dtype=np.int64, count=n)
        slopes = np.fromiter((seg.a for seg in rep), dtype=np.float64, count=n)
        intercepts = np.fromiter((seg.b for seg in rep), dtype=np.float64, count=n)
        arrays = (ends, starts, slopes, intercepts)
        try:
            rep._par_arrays = arrays
        except AttributeError:
            pass
    return arrays


def _piece_distances(lengths: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Dist_S of every partition piece (Eq. (12)), in ``dist_s``'s operation order."""
    return (
        lengths * (lengths - 1) * (2 * lengths - 1) / 6.0 * da * da
        + lengths * (lengths - 1) * da * db
        + lengths * db * db
    )


def dist_par(rep_q: LinearSegmentation, rep_c: LinearSegmentation) -> float:
    """Dist_PAR between two adaptive-length representations (Eq. (13)).

    Computed lane-wise over the union partition with every arithmetic step
    in the same order as the scalar ``partition``/``dist_s`` route, so the
    result is bit-identical to refining both representations and summing
    per-segment distances (the property tests assert this).
    """
    obs.count("dist.par.calls")
    if rep_q.length != rep_c.length:
        raise ValueError(
            f"representations cover different lengths: {rep_q.length} vs {rep_c.length}"
        )
    ends_q, starts_q, a_q, b_q = _segment_arrays(rep_q)
    ends_c, starts_c, a_c, b_c = _segment_arrays(rep_c)
    union = np.union1d(ends_q, ends_c)
    piece_starts = np.empty_like(union)
    piece_starts[0] = 0
    piece_starts[1:] = union[:-1] + 1
    # first segment whose end >= piece end == LinearSegmentation.segment_index_at
    jq = np.searchsorted(ends_q, union)
    jc = np.searchsorted(ends_c, union)
    # Segment.restrict: the slope is unchanged, the intercept shifts to the
    # piece start — a * (start - seg.start) + b, in that operation order
    da = a_q[jq] - a_c[jc]
    db = (a_q[jq] * (piece_starts - starts_q[jq]) + b_q[jq]) - (
        a_c[jc] * (piece_starts - starts_c[jc]) + b_c[jc]
    )
    values = _piece_distances(union - piece_starts + 1, da, db)
    total = sum(values.tolist())
    return float(np.sqrt(max(total, 0.0)))


def dist_par_batch(rep_q: LinearSegmentation, columns: SegmentColumns) -> np.ndarray:
    """:func:`dist_par` of one query representation against every row.

    Each row's union partition is its own right endpoints and the query's,
    sorted together.  An endpoint present on both sides (and every padding
    lane, which repeats the row's last endpoint) appears twice; its second
    copy is an empty piece and contributes ``+0.0``.  The non-empty pieces
    are exactly ``np.union1d``'s, in the same order, every arithmetic step
    is :func:`dist_par`'s, and the lanes are added left to right —
    adding ``+0.0`` leaves a running sum unchanged — so each row's value is
    bit-identical to the scalar call.
    """
    if rep_q.length != columns.length:
        raise ValueError(
            f"representations cover different lengths: {rep_q.length} vs {columns.length}"
        )
    obs.count("dist.par.calls", len(columns))
    ends_q, starts_q, a_q, b_q = _segment_arrays(rep_q)
    ends_c = columns.ends
    rows = np.arange(len(columns))[:, None]
    union = np.sort(
        np.concatenate([ends_c, np.broadcast_to(ends_q, (len(columns), len(ends_q)))], axis=1),
        axis=1,
    )
    piece_starts = np.zeros_like(union)
    piece_starts[:, 1:] = union[:, :-1] + 1
    # first segment whose end >= piece end, as np.searchsorted finds it
    jq = np.searchsorted(ends_q, union)
    jc = (ends_c[:, :, None] < union[:, None, :]).sum(axis=1)
    slopes_c = columns.slopes[rows, jc]
    da = a_q[jq] - slopes_c
    db = (a_q[jq] * (piece_starts - starts_q[jq]) + b_q[jq]) - (
        slopes_c * (piece_starts - columns.starts[rows, jc]) + columns.intercepts[rows, jc]
    )
    lengths = union - piece_starts + 1
    values = np.where(lengths > 0, _piece_distances(lengths, da, db), 0.0)
    return np.sqrt(np.maximum(lane_sum(values), 0.0))
