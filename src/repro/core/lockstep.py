"""SAPLA over a block of rows in lock-step (paper Algs. 4.2-4.5, batched).

:class:`repro.core.sapla.SAPLA` reduces one series with three Python-driven
stages whose arithmetic is a handful of floats per step, so a collection
pays interpreter overhead, not the paper's ``O(n (N + log n))`` work.  This
module runs the same stages for a whole block of equal-length rows at once:
every step of every stage is taken by all rows that still need it (the rest
are masked out), and one numpy pass evaluates that step's candidates for the
whole block — prefix sums gathered as ``prefix[rows, idx]``, the threshold
heap as a ``(rows, N-1)`` array, padded ``(rows, segments)`` segment arrays,
ragged split scans as flat lanes with a per-row first maximum.

**Bit-identity.**  A row's result never depends on its block mates: each
lane applies the scalar pipeline's floating-point operations in the scalar
order (the lanewise kernels of :mod:`repro.core.kernels`), and each decision
reproduces the scalar tie rule — first maximum / first minimum by position,
``(area, node id)`` order for the merge heap, sequential left-to-right bound
sums.  Representations equal ``SAPLA.transform``'s to the last bit, and so
do the ``sapla.*`` work counters.  Served configuration only: the paper's
O(1) bounds and the exact split scan; the ``exact``-bound ablation stays on
the scalar pipeline, which is also the reference the tests compare against
and the cheaper path for a single row.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import obs
from .kernels import (
    areas_between_lines,
    line_coefficients,
    reconstruction_areas,
    roundtrip_coefficients,
)
from .segment import LinearSegmentation, Segment

__all__ = ["transform_rows"]

#: rows reduced per lock-step block, and the most candidate lanes one split
#: scan evaluates at a time — sized so a step's temporaries stay near 1 MB
_BLOCK_ROWS = 128
_SCAN_LANES = 8192
#: initialisation scans this many candidates per row and step, doubling on
#: a quiet run (the scalar scan's chunk rule with a block-sized ceiling)
_FIRST_CHUNK, _MAX_CHUNK = 16, 128


def transform_rows(
    matrix: np.ndarray, n_segments: int, refine_endpoints: bool
) -> "List[LinearSegmentation]":
    """SAPLA representations of every row of a finite ``(count, n)`` matrix.

    Equal, bit for bit, to ``SAPLA(n_segments=n_segments,
    refine_endpoints=refine_endpoints).transform(row)`` per row; the caller
    validates the matrix.
    """
    out: "List[LinearSegmentation]" = []
    for lo in range(0, matrix.shape[0], _BLOCK_ROWS):
        out.extend(_reduce_block(matrix[lo : lo + _BLOCK_ROWS], n_segments, refine_endpoints))
    return out


def _first_per_group(mask: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Lane index of the first set ``mask`` lane of every group that has one
    (``group`` is non-decreasing along the lanes)."""
    hits = np.flatnonzero(mask)
    owner = group[hits]
    return hits[np.r_[True, owner[1:] != owner[:-1]]] if hits.size else hits


def _ragged(widths: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(group, offset)`` of every lane when group ``g`` owns ``widths[g]``
    consecutive lanes."""
    group = np.repeat(np.arange(widths.shape[0]), widths)
    return group, np.arange(group.shape[0]) - (np.cumsum(widths) - widths)[group]


def _without_column(width: int, p: np.ndarray) -> np.ndarray:
    """``take_along_axis`` index that closes up column ``p[i]`` of row ``i``
    (the last column repeats)."""
    column = np.arange(width)
    return np.minimum(column + (column >= p[:, None]), width - 1)


def _with_column_twice(width: int, p: np.ndarray) -> np.ndarray:
    """``take_along_axis`` index that doubles column ``p[i]`` of row ``i``
    (the last column drops off)."""
    column = np.arange(width)
    return column - (column > p[:, None])


class _Block:
    """Prefix sums of a block of rows plus the lanewise SAPLA primitives.

    Every primitive takes 1-D lanes — a block row per lane and that lane's
    window / stored coefficients — and mirrors one scalar routine.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        rows, n = values.shape
        zero = np.zeros((rows, 1))
        t = np.arange(n, dtype=float)
        # cumsum is a sequential accumulate along the row: SeriesStats' sums
        self.prefix_y = np.concatenate((zero, np.cumsum(values, axis=1)), axis=1)
        self.prefix_ty = np.concatenate((zero, np.cumsum(t * values, axis=1)), axis=1)
        self.tally = dict.fromkeys(("area", "merges", "splits", "rounds", "moves"), 0)

    def fit(self, rows, start, end):
        """``Segment.fit``: least-squares ``(a, b)`` over ``[start, end]``."""
        sum_y = self.prefix_y[rows, end + 1] - self.prefix_y[rows, start]
        sum_ty = (self.prefix_ty[rows, end + 1] - self.prefix_ty[rows, start]) - start * sum_y
        return line_coefficients(end - start + 1, sum_y, sum_ty)

    def bound(self, rows, start, end, a, b):
        """``beta_segment``: endpoint / midpoint gap scaled by the length."""
        m = np.zeros(start.shape)
        for t in (start, (start + end) // 2, end):
            m = np.maximum(m, np.abs(self.values[rows, t] - (a * (t - start) + b)))
        return m * np.maximum(end - start, 1)

    def increment_area(self, rows, start, j):
        """Increment Area of growing ``[start, j-1]`` by point ``j``."""
        a1, b1 = self.fit(rows, start, j - 1)
        a2, b2 = self.fit(rows, start, j)
        return areas_between_lines(a2, b2, a1, b1, (j - start).astype(float))

    def merge_area(self, rows, start, mid, end, al, bl, ar, br):
        """``merge_pair_area`` of stored ``[start, mid]`` + ``[mid+1, end]``."""
        left_length, right_length = mid - start + 1, end - mid
        al, bl = roundtrip_coefficients(al, bl, left_length)
        ar, br = roundtrip_coefficients(ar, br, right_length)
        am, bm = self.fit(rows, start, end)
        return reconstruction_areas(am, bm, al, bl, ar, br, left_length, right_length)

    def split_point(self, rows, start, end, a, b):
        """``find_split_point(mode='scan')`` of stored segments (length >= 2):
        every candidate of every segment is a lane, first maximum per segment
        (a few segments at a time, to keep to ``_SCAN_LANES``)."""
        step = max(_SCAN_LANES // self.values.shape[1], 1)
        if start.shape[0] > step:
            parts = [
                self.split_point(*(x[lo : lo + step] for x in (rows, start, end, a, b)))
                for lo in range(0, start.shape[0], step)
            ]
            return np.concatenate(parts)
        seg, offset = _ragged(end - start)
        self.tally["area"] += seg.shape[0]
        am, bm = roundtrip_coefficients(a, b, end - start + 1)
        rows, first, last, t = rows[seg], start[seg], end[seg], start[seg] + offset
        al, bl = self.fit(rows, first, t)
        ar, br = self.fit(rows, t + 1, last)
        areas = reconstruction_areas(am[seg], bm[seg], al, bl, ar, br, t - first + 1, last - t)
        best = np.maximum.reduceat(areas, np.flatnonzero(offset == 0))
        return t[_first_per_group(areas == best[seg], seg)]


class _Segs:
    """Padded segment lists of some block rows: ``(rows, columns)`` arrays of
    which row ``i`` uses the first ``count[i]`` columns; ``rows`` are the
    block rows they belong to.  Operations return new objects; :meth:`put`
    writes rows back into the block-wide store they were taken from."""

    def __init__(self, block, rows, start, end, a, b, count):
        self.block, self.rows, self.count = block, rows, count
        self.start, self.end, self.a, self.b = start, end, a, b

    def take(self, keep) -> "_Segs":
        columns = (x[keep] for x in self._columns())
        return _Segs(self.block, self.rows[keep], *columns, self.count[keep])

    def put(self, part: "_Segs") -> None:
        for mine, theirs in zip(self._columns(), part._columns()):
            mine[part.rows] = theirs
        self.count[part.rows] = part.count

    def _columns(self):
        return self.start, self.end, self.a, self.b

    def _reindexed(self, index, count) -> "_Segs":
        columns = (np.take_along_axis(x, index, axis=1) for x in self._columns())
        return _Segs(self.block, self.rows, *columns, count)

    def valid(self) -> np.ndarray:
        return np.arange(self.start.shape[1]) < self.count[:, None]

    def merged(self, p) -> "_Segs":
        """Every row's segments ``p`` and ``p + 1`` refitted as one."""
        out = self._reindexed(_without_column(self.start.shape[1], p + 1), self.count - 1)
        i = np.arange(p.shape[0])
        out.end[i, p] = self.end[i, p + 1]
        out.a[i, p], out.b[i, p] = self.block.fit(self.rows, out.start[i, p], out.end[i, p])
        return out

    def split(self, w) -> "_Segs":
        """Every row's segment ``w`` (two points or more) refitted as two at
        its best split point."""
        i = np.arange(w.shape[0])
        t = self.block.split_point(
            self.rows, self.start[i, w], self.end[i, w], self.a[i, w], self.b[i, w]
        )
        out = self._reindexed(_with_column_twice(self.start.shape[1], w), self.count + 1)
        out.end[i, w] = t
        out.start[i, w + 1] = t + 1
        out.a[i, w], out.b[i, w] = self.block.fit(self.rows, out.start[i, w], t)
        out.a[i, w + 1], out.b[i, w + 1] = self.block.fit(self.rows, t + 1, out.end[i, w + 1])
        return out

    def bounds(self, fill: float) -> np.ndarray:
        """``segment_bounds_vector`` per row; padding columns hold ``fill``."""
        out = np.full(self.start.shape, fill)
        r, c = np.nonzero(self.valid())
        out[r, c] = self.block.bound(
            self.rows[r], self.start[r, c], self.end[r, c], self.a[r, c], self.b[r, c]
        )
        return out

    def total_bound(self) -> np.ndarray:
        """``_total_bound``: the bounds summed left to right (a sequential
        accumulate, like Python's ``sum``; padding adds exact zeros)."""
        return np.cumsum(self.bounds(0.0), axis=1)[:, -1]

    def pair_area(self, i, c) -> np.ndarray:
        """Merge Reconstruction Area of segments ``c`` and ``c + 1`` of rows ``i``."""
        left, right = (self.a[i, c], self.b[i, c]), (self.a[i, c + 1], self.b[i, c + 1])
        return self.block.merge_area(
            self.rows[i], self.start[i, c], self.end[i, c], self.end[i, c + 1], *left, *right
        )

    def pair_areas(self) -> np.ndarray:
        """``adjacent_pair_areas`` per row; ``inf`` where no pair exists."""
        out = np.full((self.start.shape[0], self.start.shape[1] - 1), np.inf)
        i, c = np.nonzero(self.valid()[:, 1:])
        out[i, c] = self.pair_area(i, c)
        self.block.tally["area"] += i.shape[0]
        return out


def _reduce_block(
    values: np.ndarray, n_segments: int, refine_endpoints: bool
) -> "List[LinearSegmentation]":
    """One block through the three stages; each stage runs every row to its
    own stopping point before the next begins."""
    block = _Block(values)
    rows, n = values.shape
    target = min(n_segments, n)
    obs.count("sapla.transforms", rows)
    with obs.span("sapla.initialize"):
        segs = _initialize(block, n_segments, target + 1)
    with obs.span("sapla.split_merge"):
        _merge_down(segs, target)
        _split_up(segs, target)
        _probe_rounds(segs, target)
    if refine_endpoints:
        with obs.span("sapla.endpoint_movement"):
            _move_endpoints(segs)
    obs.count("sapla.area_evaluations", block.tally["area"])
    obs.count("sapla.split_merge.merges", block.tally["merges"])
    obs.count("sapla.split_merge.splits", block.tally["splits"])
    obs.count("sapla.split_merge.rounds", block.tally["rounds"])
    obs.count("sapla.endpoint.moves", block.tally["moves"])
    out = []
    lanes = zip(segs.start.tolist(), segs.end.tolist(), segs.a.tolist(), segs.b.tolist())
    for count, (start, end, a, b) in zip(segs.count.tolist(), lanes):
        obs.observe("sapla.segment_count", count)
        out.append(LinearSegmentation(list(map(Segment, start[:count], end[:count], a, b))))
    return out


def _initialize(block: _Block, n_segments: int, min_columns: int) -> _Segs:
    """Stage 1 (``initialize_fast``): each row grows its open segment until a
    candidate's Increment Area beats the row's threshold — the smallest of
    its ``N-1`` largest areas so far, or anything while that heap is still
    filling — and the candidate opens the next segment."""
    rows, n = block.values.shape
    every = np.arange(rows)
    starts = np.zeros((rows, max(n // 2 + 2, min_columns)), dtype=np.intp)
    count = np.ones(rows, dtype=np.intp)
    if n > 2 and n_segments > 1:
        heap = np.full((rows, n_segments - 1), np.inf)
        filled = np.zeros(rows, dtype=np.intp)
        start = np.zeros(rows, dtype=np.intp)
        cursor = np.full(rows, 2, dtype=np.intp)
        chunk = np.full(rows, _FIRST_CHUNK, dtype=np.intp)
        active = every
        while True:
            active = active[cursor[active] < n]  # no candidate left: the row is done
            if not active.size:
                break
            filling = filled[active] < n_segments - 1
            width = np.where(filling, 1, np.minimum(chunk[active], n - cursor[active]))
            lane, offset = _ragged(width)
            j = cursor[active][lane] + offset
            areas = block.increment_area(active[lane], start[active][lane], j)
            over = (areas > heap[active].min(axis=1)[lane]) | filling[lane]
            first = _first_per_group(over, lane)
            hit = np.zeros(active.shape[0], dtype=bool)
            hit[lane[first]] = True
            quiet = active[~hit]
            cursor[quiet] += width[~hit]
            chunk[quiet] = np.minimum(chunk[quiet] * 2, _MAX_CHUNK)
            split, at = active[hit], j[first]
            # heappush while filling, heapreplace (drop the minimum) after
            slot = np.where(filling[hit], filled[split], heap[split].argmin(axis=1))
            heap[split, slot] = areas[first]
            filled[split] = np.minimum(filled[split] + 1, n_segments - 1)
            starts[split, count[split]] = at
            count[split] += 1
            start[split], cursor[split], chunk[split] = at, at + 2, _FIRST_CHUNK
    starts = starts[:, : max(int(count.max()), min_columns)]
    end = np.zeros_like(starts)
    end[:, :-1] = starts[:, 1:] - 1
    end[every, count - 1] = n - 1
    segs = _Segs(block, every, starts, end, np.zeros(starts.shape), np.zeros(starts.shape), count)
    r, c = np.nonzero(segs.valid())
    segs.a[r, c], segs.b[r, c] = block.fit(r, starts[r, c], end[r, c])
    return segs


def _merge_down(segs: _Segs, target: int) -> None:
    """Stage 2, ``count > N``: merge the pair of least ``(area, node id)`` —
    the pop order of the scalar lazy heap, whose stale entries never win —
    until ``target`` segments remain."""
    tally = segs.block.tally
    live = segs.take(segs.count > target)
    area = live.pair_areas()
    node = np.tile(np.arange(live.start.shape[1]), (live.rows.shape[0], 1))
    next_id = live.count.copy()
    while live.rows.size:
        i = np.arange(live.rows.shape[0])
        cheapest = area == area.min(axis=1)[:, None]
        p = np.where(cheapest, node[:, :-1], np.iinfo(np.intp).max).argmin(axis=1)
        live = live.merged(p)
        tally["merges"] += i.shape[0]
        # the merged node takes a fresh id and its two pair areas are measured
        node = np.take_along_axis(node, _without_column(node.shape[1], p + 1), axis=1)
        node[i, p] = next_id
        next_id += 1
        area = np.take_along_axis(area, _without_column(area.shape[1], p), axis=1)
        area[:, -1] = np.inf
        for has, c in ((p > 0, p - 1), (p + 1 < live.count, p)):
            area[i[has], c[has]] = live.pair_area(i[has], c[has])
            tally["area"] += int(has.sum())
        done = live.count == target
        if done.any():
            segs.put(live.take(done))
            live, area, node, next_id = live.take(~done), area[~done], node[~done], next_id[~done]


def _split_up(segs: _Segs, target: int) -> None:
    """Stage 2, ``count < N``: split the first segment of maximum bound that
    has a second point, at its best split point, until ``target`` exist
    (``target <= n``, so such a segment always exists)."""
    while True:
        live = segs.take(segs.count < target)
        if not live.rows.size:
            return
        bounds = np.where(live.end > live.start, live.bounds(-np.inf), -np.inf)
        worst = bounds.argmax(axis=1)
        segs.put(live.split(worst))
        segs.block.tally["splits"] += live.rows.shape[0]


def _split_worst(segs: _Segs) -> "tuple[np.ndarray, _Segs]":
    """Which rows' first segment of maximum bound has a second point, and
    those rows with it split at its best split point."""
    worst = segs.bounds(-np.inf).argmax(axis=1)
    i = np.arange(worst.shape[0])
    can = segs.end[i, worst] > segs.start[i, worst]
    return can, segs.take(can).split(worst[can])


def _merge_cheapest(segs: _Segs) -> _Segs:
    return segs.merged(segs.pair_areas().argmin(axis=1))


def _probe_rounds(segs: _Segs, target: int) -> None:
    """Stage 2, ``count == N``: per round try split-then-merge and (given a
    pair to merge) merge-then-split, keep the one with the smaller total
    bound — the first on a tie — while it lowers the row's total, for at
    most ``2 N`` rounds."""
    live, total = segs, segs.total_bound()
    for _ in range(2 * target):
        if not live.rows.size:
            return
        segs.block.tally["rounds"] += live.rows.shape[0]
        can, split = _split_worst(live)
        probes = [(can, _merge_cheapest(split))]
        if target >= 2:
            probes.append(_split_worst(_merge_cheapest(live)))
        totals = np.full((len(probes), live.rows.shape[0]), np.inf)
        for which, (can, probe) in enumerate(probes):
            totals[which, can] = probe.total_bound()
        choice, best_total = totals.argmin(axis=0), totals.min(axis=0)
        better = best_total < total - 1e-12
        for which, (can, probe) in enumerate(probes):
            segs.put(probe.take((better & (choice == which))[can]))
        live, total = segs.take(live.rows[better]), best_total[better]


#: Fig. 9's four moves of segment ``i``: (pair's left segment - i, boundary step)
_MOVES = np.array([(0, +1), (0, -1), (-1, -1), (-1, +1)])


def _move_endpoints(segs: _Segs) -> None:
    """Stage 3: visit each row's segments by decreasing initial bound; at
    each, slide a boundary by one while the best of the four moves lowers the
    affected pair's summed bound (a budget of ``4 n`` moves per row)."""
    block = segs.block
    live = segs.take(segs.count >= 2)
    # stable descending order: ties visit the lower index first
    order = np.argsort(-live.bounds(-np.inf), axis=1, kind="stable")
    visit = np.zeros(live.rows.shape[0], dtype=np.intp)
    budget = np.full(live.rows.shape[0], 4 * block.values.shape[1])
    while live.rows.size:
        i = np.arange(live.rows.shape[0])
        pair = order[i, visit][:, None] + _MOVES[:, 0]
        exists = (pair >= 0) & (pair + 1 < live.count[:, None])
        pair = np.where(exists, pair, 0)
        grid = i[:, None]
        boundary = live.end[grid, pair] + _MOVES[:, 1]
        exists &= (boundary >= live.start[grid, pair]) & (boundary < live.end[grid, pair + 1])
        r, m = np.nonzero(exists)
        p, at, rows = pair[r, m], boundary[r, m], live.rows[r]
        left, right = live.start[r, p], live.end[r, p + 1]
        old = block.bound(rows, left, live.end[r, p], live.a[r, p], live.b[r, p]) + block.bound(
            rows, live.start[r, p + 1], right, live.a[r, p + 1], live.b[r, p + 1]
        )
        la, lb = block.fit(rows, left, at)
        ra, rb = block.fit(rows, at + 1, right)
        new = block.bound(rows, left, at, la, lb) + block.bound(rows, at + 1, right, ra, rb)
        delta = np.full(exists.shape, np.inf)
        delta[r, m] = new - old
        best = delta.argmin(axis=1)
        moved = delta[i, best] < -1e-12
        lane = np.flatnonzero(moved[r] & (m == best[r]))
        r, p, at = r[lane], p[lane], at[lane]
        live.end[r, p], live.start[r, p + 1] = at, at + 1
        live.a[r, p], live.b[r, p] = la[lane], lb[lane]
        live.a[r, p + 1], live.b[r, p + 1] = ra[lane], rb[lane]
        block.tally["moves"] += r.shape[0]
        budget[moved] -= 1
        visit[~moved] += 1
        done = (visit >= live.count) | (budget <= 0)
        if done.any():
            segs.put(live.take(done))
            live, order, visit, budget = live.take(~done), order[~done], visit[~done], budget[~done]
