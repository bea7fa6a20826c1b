"""Dist_LB — the guaranteed lower bound for adaptive representations.

Generalises APCA's ``Dist_LB`` (Keogh et al. 2001) to linear segments: the
*raw* query is projected (least-squares line fit) onto the data
representation's own segment windows, and the aligned Dist_S sum is taken.

Guarantee: writing ``P`` for the block-diagonal projector onto the span of
``{1, t}`` over each of C's windows, ``C-hat`` satisfies ``P C = C-check``
(the representation *is* the projection), and

    ||Q - C||^2 = ||P(Q - C)||^2 + ||(I-P)(Q - C)||^2 >= ||P Q - P C||^2,

so Dist_LB never exceeds the true Euclidean distance — the no-false-dismissal
property GEMINI requires.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.kernels import window_lines
from ..core.linefit import SeriesStats
from ..core.segment import LinearSegmentation, Segment
from .columnar import SegmentColumns, lane_sum
from .segmentwise import dist_s

__all__ = ["dist_lb", "dist_lb_batch", "project_onto_layout"]


def project_onto_layout(
    series: np.ndarray,
    layout: LinearSegmentation,
    stats: "SeriesStats | None" = None,
) -> LinearSegmentation:
    """Least-squares projection of a raw series onto another rep's windows.

    The projection must target the *same* model class per window as the
    representation, or the Pythagorean argument breaks: a constant-model
    representation (APCA/PAA/PAALM — every slope exactly zero) gets window
    means; a linear-model one gets window line fits.

    ``stats`` may carry the series' precomputed :class:`SeriesStats` so a
    query projected onto many candidate layouts builds its prefix sums
    once; the fit arithmetic is unchanged, so results are identical.
    """
    series = np.asarray(series, dtype=float)
    if series.shape[0] != layout.length:
        raise ValueError(
            f"series length {series.shape[0]} does not match layout length {layout.length}"
        )
    if stats is None:
        stats = SeriesStats(series)
    constant_model = all(seg.a == 0.0 for seg in layout)
    if constant_model:
        pieces = []
        for seg in layout:
            sum_y, _ = stats.window_sums(seg.start, seg.end)
            pieces.append(
                Segment(start=seg.start, end=seg.end, a=0.0, b=sum_y / seg.length)
            )
        return LinearSegmentation(pieces)
    return LinearSegmentation(
        [Segment.fit(stats, seg.start, seg.end) for seg in layout]
    )


def dist_lb(
    query: np.ndarray,
    rep_c: LinearSegmentation,
    stats: "SeriesStats | None" = None,
) -> float:
    """Guaranteed lower bound of ``Dist(Q, C)`` from C's representation only.

    ``stats`` optionally carries the query's precomputed
    :class:`SeriesStats` (see :func:`project_onto_layout`).
    """
    obs.count("dist.lb.calls")
    projected = project_onto_layout(query, rep_c, stats=stats)
    total = sum(dist_s(sq, sc) for sq, sc in zip(projected, rep_c))
    return float(np.sqrt(max(total, 0.0)))


def dist_lb_batch(query: np.ndarray, columns: SegmentColumns) -> np.ndarray:
    """:func:`dist_lb` of one query against every row of ``columns``.

    Bit-identical to the scalar function row by row: the query's prefix
    sums are the same :class:`SeriesStats`, every lane's projection is the
    same prefix difference fed through the ``LineFit.coefficients`` closed
    form (:func:`repro.core.kernels.window_lines`; window means on
    constant-model rows), Dist_S uses the same operation order, and the
    lanes are added left to right — padding lanes as ``+0.0``, which leaves
    a running sum unchanged — exactly as ``sum()`` adds the segments.
    """
    query = np.asarray(query, dtype=float)
    if query.shape[0] != columns.length:
        raise ValueError(
            f"series length {query.shape[0]} does not match layout length {columns.length}"
        )
    obs.count("dist.lb.calls", len(columns))
    stats = SeriesStats(query)
    starts, ends = columns.starts, columns.ends
    qa, qb = window_lines(stats, starts, ends)
    if columns.constant.any():
        constant = columns.constant[:, None]
        sum_y = stats.prefix_y[ends + 1] - stats.prefix_y[starts]
        qa = np.where(constant, 0.0, qa)
        qb = np.where(constant, sum_y / columns.c1, qb)
    da = qa - columns.slopes
    db = qb - columns.intercepts
    values = columns.c3 * da * da + columns.c2 * da * db + columns.c1 * db * db
    return np.sqrt(np.maximum(lane_sum(np.where(columns.mask, values, 0.0)), 0.0))
