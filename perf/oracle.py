"""Brute-force ground truth and failure accounting.

Nothing here imports ``repro``: the expected answer of every query is the
NumPy top-k over the rows the benchmark itself generated, in the stable
``(distance, id)`` order.  An operation *fails* when it raises, is shed or
errors on the wire, or when its ids differ from the oracle's or any distance
is off by more than float round-off; on ``ingest_mixed`` an acknowledged
insert that is not its own distance-0 nearest neighbour after the reopen
fails too.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: distances may differ from the oracle's by summation order, never by more
DISTANCE_RTOL = 1e-9
DISTANCE_ATOL = 1e-12

Answer = Tuple[List[int], List[float]]


def top_k(data: np.ndarray, query: np.ndarray, k: int) -> Answer:
    """Exact k nearest rows of ``data`` to ``query``: ``(ids, distances)``."""
    distances = np.linalg.norm(data - query[None, :], axis=1)
    order = np.argsort(distances, kind="stable")[:k]
    return [int(i) for i in order], [float(distances[i]) for i in order]


def expected_answers(data: np.ndarray, queries: np.ndarray, k: int) -> "List[Answer]":
    """The oracle's answer for every row of ``queries``."""
    return [top_k(data, query, k) for query in queries]


def same_answer(ids: "Sequence[int]", distances: "Sequence[float]", truth: Answer) -> bool:
    """Whether a system answer matches the oracle's."""
    true_ids, true_distances = truth
    if [int(i) for i in ids] != true_ids:
        return False
    return bool(
        np.allclose(distances, true_distances, rtol=DISTANCE_RTOL, atol=DISTANCE_ATOL)
    )


def recall(ids: "Sequence[int]", truth: Answer) -> float:
    """Share of the oracle's neighbours present in ``ids``."""
    true_ids = truth[0]
    return len(set(int(i) for i in ids) & set(true_ids)) / len(true_ids) if true_ids else 1.0


def is_own_neighbour(ids: "Sequence[int]", distances: "Sequence[float]", row_id: int) -> bool:
    """Durability check: a stored row queried by itself comes back first, at 0."""
    return (
        len(ids) > 0
        and int(ids[0]) == int(row_id)
        and abs(float(distances[0])) <= DISTANCE_ATOL
    )


class Tally:
    """Attempted / failed operations, per phase and in total."""

    def __init__(self):
        self.phases: "Dict[str, List[int]]" = {}
        self.problems: "List[str]" = []

    def record(self, phase: str, ok: bool, why: str = "") -> bool:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{phase}: {why or 'wrong answer'}")
        return ok

    def check(self, phase: str, result, truth: Answer) -> bool:
        """Record one answered query (``result`` has ``ids`` / ``distances``)."""
        ok = same_answer(result.ids, result.distances, truth)
        why = "" if ok else f"got ids {list(result.ids)}, oracle says {truth[0]}"
        return self.record(phase, ok, why)

    def fail(self, phase: str, why: str) -> None:
        """Record an operation that raised, was shed or broke an invariant."""
        self.record(phase, False, why)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def report(self) -> "List[str]":
        lines = [
            f"  {phase}: attempted {a}, succeeded {a - f}, failed {f}"
            for phase, (a, f) in self.phases.items()
        ]
        return lines + [f"  ! {problem}" for problem in self.problems]
