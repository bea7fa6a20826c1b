"""Columnar layout of many segment representations.

A :class:`SegmentColumns` holds a whole collection's
:class:`~repro.core.segment.LinearSegmentation` objects as one padded
struct-of-arrays, so a query's bound against *every* stored row is a few
NumPy passes (:func:`repro.distance.dist_lb.dist_lb_batch`,
:func:`repro.distance.dist_par.dist_par_batch`, the aligned Dist_PLA /
Dist_PAA kernel in :mod:`repro.distance.suite`) instead of one Python call
per row.  Rows may have different segment counts: row ``i`` fills its first
``n_i`` lanes and the rest are padding, marked by :attr:`mask`.

Padding lanes carry the window ``[n-1, n-1]`` (``n`` the series length):
always a valid index range for the Dist_LB prefix-sum gathers, and a
duplicate of the row's last right endpoint for the Dist_PAR union partition,
where duplicates contribute ``+0.0``.

The layout grows in place: :meth:`extend` appends rows into capacity-doubling
buffers (and widens every column when a new row has more segments), so a
stream of inserts costs amortised O(1) array work per row.  The public
column attributes are views over the filled prefix and are re-sliced after
every append; readers must not hold them across a mutation (the database
only mutates while no snapshot is pinned).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.segment import LinearSegmentation

__all__ = ["SegmentColumns", "grown", "lane_sum"]

#: ``(attribute, dtype)`` of every per-lane column, shape ``(rows, width)``
_LANE_COLUMNS = (
    ("starts", np.int64),
    ("ends", np.int64),
    ("slopes", np.float64),
    ("intercepts", np.float64),
    ("mask", np.bool_),
    # Dist_S constants of each lane's own window (paper Eq. (12)):
    # c3 = l(l-1)(2l-1)/6, c2 = l(l-1), c1 = l
    ("c3", np.float64),
    ("c2", np.float64),
    ("c1", np.float64),
)


def grown(buffer: np.ndarray, filled: int, needed: int) -> np.ndarray:
    """``buffer`` with room for ``needed`` rows, keeping its first ``filled``.

    Returns ``buffer`` itself when it is already large enough, otherwise a
    new array of twice the needed capacity — the amortised-doubling rule the
    database's raw row buffer uses.  Rows past ``filled`` are uninitialised.
    """
    if needed <= buffer.shape[0]:
        return buffer
    capacity = max(4, 2 * needed) if filled else needed  # the first fill is exact
    bigger = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    bigger[:filled] = buffer[:filled]
    return bigger


def lane_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of a ``(rows, lanes)`` array, added strictly left to right.

    ``0.0 + v[0] + v[1] + ...`` per row — the order Python's ``sum()`` adds
    a scalar bound's per-segment terms, so a batch bound ending in this sum
    is bit-identical to its scalar reference (``ndarray.sum`` adds pairwise
    and is not).
    """
    total = np.zeros(values.shape[0])
    for lane in range(values.shape[1]):
        total += values[:, lane]
    return total


class SegmentColumns:
    """Padded ``(rows, max_segments)`` struct-of-arrays over segmentations.

    Attributes (all views over the filled rows):
        starts / ends: int64 window bounds of every lane (inclusive).
        slopes / intercepts: float64 line coefficients, local abscissae.
        mask: ``True`` on real lanes, ``False`` on padding.
        c3 / c2 / c1: the lane's Dist_S constants.
        constant: per row, whether every slope is exactly zero — the
            constant-model flag Dist_LB's projection branches on.
        length: the series length ``n`` every row covers.
        uniform: whether every row has the same segment layout (what the
            aligned Dist_PLA / Dist_PAA kernel requires).
    """

    def __init__(self, representations: "Sequence[LinearSegmentation]"):
        if not representations:
            raise ValueError("cannot stack an empty collection")
        self.length = representations[0].length
        self.uniform = True
        self._count = 0
        width = max(rep.n_segments for rep in representations)
        self._buffers = {
            name: np.empty((0, width), dtype=dtype) for name, dtype in _LANE_COLUMNS
        }
        self._constant = np.empty(0, dtype=np.bool_)
        self.extend(representations)

    def __len__(self) -> int:
        return self._count

    @property
    def width(self) -> int:
        """Lanes per row: the largest segment count seen so far."""
        return self._buffers["ends"].shape[1]

    def extend(self, representations: "Sequence[LinearSegmentation]") -> None:
        """Append one row per representation (amortised O(1) per row)."""
        if not representations:
            return
        counts = np.fromiter(
            (rep.n_segments for rep in representations),
            dtype=np.int64,
            count=len(representations),
        )
        flat = np.array(
            [(seg.start, seg.end, seg.a, seg.b) for rep in representations for seg in rep],
            dtype=np.float64,
        )
        last = self.length - 1
        firsts = np.cumsum(counts) - counts
        if (flat[firsts + counts - 1, 1] != last).any():
            raise ValueError(
                f"stacked representations must all cover length {self.length}"
            )
        if counts.max() > self.width:
            self._widen(int(counts.max()))
        width = self.width
        n_new = len(representations)
        rows = np.repeat(np.arange(n_new), counts)
        lanes = np.arange(len(flat)) - np.repeat(firsts, counts)

        starts = np.full((n_new, width), last, dtype=np.int64)
        ends = np.full((n_new, width), last, dtype=np.int64)
        slopes = np.zeros((n_new, width))
        intercepts = np.zeros((n_new, width))
        mask = np.zeros((n_new, width), dtype=np.bool_)
        starts[rows, lanes] = flat[:, 0]
        ends[rows, lanes] = flat[:, 1]
        slopes[rows, lanes] = flat[:, 2]
        intercepts[rows, lanes] = flat[:, 3]
        mask[rows, lanes] = True
        lengths = ends - starts + 1  # exact ints; products stay below 2**53
        block = {
            "starts": starts,
            "ends": ends,
            "slopes": slopes,
            "intercepts": intercepts,
            "mask": mask,
            "c3": lengths * (lengths - 1) * (2 * lengths - 1) / 6.0,
            "c2": (lengths * (lengths - 1)).astype(np.float64),
            "c1": lengths.astype(np.float64),
        }

        filled, total = self._count, self._count + n_new
        for name, values in block.items():
            buffer = grown(self._buffers[name], filled, total)
            buffer[filled:total] = values
            self._buffers[name] = buffer
        self._constant = grown(self._constant, filled, total)
        self._constant[filled:total] = ~((slopes != 0.0) & mask).any(axis=1)
        self._count = total
        self._publish()
        reference = self.ends[0]
        self.uniform = bool(
            self.uniform
            and self.mask[0].all()
            and mask.all()
            and (ends == reference).all()
        )

    def _widen(self, width: int) -> None:
        """Re-pad every column to ``width`` lanes (a row brought more segments)."""
        pad = width - self.width
        last = self.length - 1
        fills = {"starts": last, "ends": last, "mask": False, "c1": 1.0}
        for name, buffer in self._buffers.items():
            extra = np.full((buffer.shape[0], pad), fills.get(name, 0.0), dtype=buffer.dtype)
            self._buffers[name] = np.concatenate([buffer, extra], axis=1)

    def _publish(self) -> None:
        """Re-slice the public views over the filled prefix."""
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[: self._count])
        self.constant = self._constant[: self._count]
