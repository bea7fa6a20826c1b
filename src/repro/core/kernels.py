"""Vectorised prefix-statistics kernels shared by the SAPLA stages.

Every quantity SAPLA evaluates while iterating — window line fits, split
Reconstruction Areas, adjacent-pair merge areas, segment upper bounds — is
a closed-form expression over the prefix sums held by
:class:`repro.core.linefit.SeriesStats` (the ``SeriesPrefix`` sufficient
statistics: cumulative ``y``, ``t*y`` and ``y**2``).  The scalar modules
evaluate them one candidate at a time; the kernels here evaluate a whole
candidate set in a handful of numpy passes.

**Bit-identity contract.**  Each kernel replicates the exact floating-point
operation order of its scalar counterpart, elementwise: the same prefix
differences, the same normal-equation formula, the same trapezoid/triangle
branch of :func:`repro.core.areas.area_between_lines` selected by the same
predicate.  IEEE-754 arithmetic is deterministic per element, so a kernel's
lane ``i`` equals the scalar call for candidate ``i`` to the last bit — the
equivalence tests under ``tests/core`` assert exactly that, and the callers
(split-point scan, merge heap seeding, bound orderings) therefore make the
same decisions as the scalar loops, including on ties.
"""

from __future__ import annotations

import numpy as np

from .linefit import SeriesStats

__all__ = [
    "window_lines",
    "reconstruction_areas",
    "split_point_areas",
    "adjacent_pair_areas",
    "segment_bounds_vector",
]


def window_lines(
    stats: SeriesStats, starts: np.ndarray, ends: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised ``(a, b)`` of the least-squares fits over ``[starts, ends]``.

    The elementwise counterpart of ``stats.window_fit(s, e).coefficients``:
    prefix differences give ``sum_y`` / ``sum_ty``, then the normal-equation
    closed form — with the single-point convention ``(0.0, sum_y)`` — in the
    same operation order as :class:`repro.core.linefit.LineFit`.
    """
    prefix_y = stats._prefix_y
    prefix_ty = stats._prefix_ty
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    sum_y = prefix_y[ends + 1] - prefix_y[starts]
    sum_ty = (prefix_ty[ends + 1] - prefix_ty[starts]) - starts * sum_y
    return line_coefficients(ends - starts + 1, sum_y, sum_ty)


def line_coefficients(
    lengths: np.ndarray, sum_y: np.ndarray, sum_ty: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``LineFit.coefficients`` applied lanewise to sufficient statistics.

    ``l * (l-1)`` products stay exact in float64 far beyond any realistic
    series length, so the float moment sums equal the scalar path's
    int-arithmetic ones bit for bit.
    """
    lengths = np.asarray(lengths, dtype=float)
    s1 = lengths * (lengths - 1) / 2.0
    s2 = lengths * (lengths - 1) * (2 * lengths - 1) / 6.0
    det = lengths * s2 - s1 * s1
    single = lengths == 1
    safe_det = np.where(single, 1.0, det)
    a = np.where(single, 0.0, (lengths * sum_ty - s1 * sum_y) / safe_det)
    b = np.where(single, sum_y, (sum_y - a * s1) / lengths)
    return a, b


def roundtrip_coefficients(
    a: np.ndarray, b: np.ndarray, lengths: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Coefficients after a ``Segment.to_fit()`` round-trip, lanewise.

    ``merge_pair_area`` reads each side's line through
    ``LineFit.from_coefficients(a, b, l).coefficients``; the recovered
    statistics are not bitwise the stored ``(a, b)`` in general, so the
    round-trip must be replicated, not skipped.
    """
    lengths = np.asarray(lengths, dtype=float)
    s1 = lengths * (lengths - 1) / 2.0
    s2 = lengths * (lengths - 1) * (2 * lengths - 1) / 6.0
    sum_y = a * s1 + b * lengths
    sum_ty = a * s2 + b * s1
    return line_coefficients(lengths, sum_y, sum_ty)


def areas_between_lines(
    a1: np.ndarray,
    b1: np.ndarray,
    a2: np.ndarray,
    b2: np.ndarray,
    t1: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`repro.core.areas.area_between_lines` over ``[0, t1]``.

    Every caller integrates from ``t0 = 0``, which removes the ``da*t0``
    term; the trapezoid-vs-triangles branch is selected by the same
    predicate (``da == 0 or d0*d1 >= 0``) as the scalar code.
    """
    da = a1 - a2
    db = b1 - b2
    d0 = db
    d1 = da * t1 + db
    trapezoid = 0.5 * (np.abs(d0) + np.abs(d1)) * t1
    # the triangles are computed on every lane but kept only where the lines
    # cross, where they are finite; elsewhere ``t_cross`` may overflow and
    # the triangles turn inf - inf.  ``d0 * d1`` is read for its sign only.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(da != 0.0, -db / np.where(da != 0.0, da, 1.0), 0.0)
        triangles = 0.5 * np.abs(d0) * t_cross + 0.5 * np.abs(d1) * (t1 - t_cross)
        crossing = (da != 0.0) & (d0 * d1 < 0.0)
    area = np.where(crossing, triangles, trapezoid)
    return np.where(t1 == 0.0, 0.0, area)


def reconstruction_areas(am, bm, al, bl, ar, br, left_lengths, right_lengths) -> np.ndarray:
    """Vectorised :func:`repro.core.areas.reconstruction_area`: the area
    between a whole line ``(am, bm)`` and its left ``(al, bl)`` / right
    ``(ar, br)`` sub-segment lines, the right one in its own local frame."""
    left_area = areas_between_lines(am, bm, al, bl, (left_lengths - 1).astype(float))
    offset = left_lengths.astype(float)
    right_area = areas_between_lines(
        am, am * offset + bm, ar, br, (right_lengths - 1).astype(float)
    )
    return left_area + right_area


def split_point_areas(stats: SeriesStats, segment) -> np.ndarray:
    """Reconstruction Areas of every split ``[start, t] + [t+1, end]``.

    One lane per candidate ``t in [start, end)`` — the vectorised body of
    ``find_split_point(mode='scan')``.  The whole segment's line is read
    through the same ``Segment.to_fit()`` round-trip of the *stored*
    ``(a, b)`` that the scalar path uses.
    """
    start, end = segment.start, segment.end
    candidates = np.arange(start, end)
    am, bm = roundtrip_coefficients(
        np.float64(segment.a), np.float64(segment.b), segment.length
    )
    al, bl = window_lines(stats, start, candidates)
    ar, br = window_lines(stats, candidates + 1, end)
    return reconstruction_areas(
        am, bm, al, bl, ar, br, candidates - start + 1, end - candidates
    )


def adjacent_pair_areas(stats: SeriesStats, segments) -> np.ndarray:
    """Merge Reconstruction Area of every adjacent segment pair, lanewise.

    The vectorised counterpart of calling
    :func:`repro.core.split_merge.merge_pair_area` on each consecutive pair:
    both sides' lines go through the ``to_fit()`` coefficient round-trip and
    the merged fit comes from the prefix sums.
    """
    starts = np.array([s.start for s in segments])
    ends = np.array([s.end for s in segments])
    a = np.array([s.a for s in segments], dtype=float)
    b = np.array([s.b for s in segments], dtype=float)
    lengths = ends - starts + 1
    ra, rb = roundtrip_coefficients(a, b, lengths)
    al, bl = ra[:-1], rb[:-1]
    ar, br = ra[1:], rb[1:]
    am, bm = window_lines(stats, starts[:-1], ends[1:])
    return reconstruction_areas(am, bm, al, bl, ar, br, lengths[:-1], lengths[1:])


def segment_bounds_vector(values: np.ndarray, segments) -> np.ndarray:
    """Vectorised :func:`repro.core.bounds.beta_segment` over a segment list.

    Samples the original-vs-reconstruction gap at each segment's start,
    midpoint and end, scaled by ``max(l - 1, 1)`` — the paper's
    free-standing bound, one lane per segment.
    """
    starts = np.array([s.start for s in segments])
    ends = np.array([s.end for s in segments])
    a = np.array([s.a for s in segments], dtype=float)
    b = np.array([s.b for s in segments], dtype=float)
    mids = (starts + ends) // 2
    m = np.zeros(len(segments))
    for t in (starts, mids, ends):
        gap = np.abs(values[t] - (a * (t - starts) + b))
        m = np.maximum(m, gap)
    return m * np.maximum(ends - starts, 1)
