"""Typed options and results for the batched query engine.

The engine's public vocabulary: :class:`ExecutionMode` names the execution
strategies, :class:`QueryOptions` is the validated, immutable per-batch
configuration, and :class:`BatchResult` carries every per-query
:class:`repro.index.KNNResult` plus batch-level accounting.  All validation
is eager — a bad option raises here, never mid-round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Union

from ..index.knn import KNNResult
from ..kinds import require_int

__all__ = ["ExecutionMode", "QueryOptions", "BatchResult"]


class ExecutionMode(str, Enum):
    """How :meth:`repro.engine.QueryEngine.knn_batch` executes a batch.

    ``AUTO`` lets the engine choose (currently: vectorised, except that a
    multi-query scan with an adaptive reducer keeps the lazy cascade heap
    rather than the columnar store while the one-query-vs-all kernels are
    rolled out in stages).  ``VECTORIZED`` forces the batched path: stacked
    representation bounds where the method supports them and one NumPy
    verification pass per round across all pending (query, candidate)
    pairs.  ``SEQUENTIAL`` runs each query to completion on its own with
    scalar bounds — the classic per-query loop, kept as the benchmark
    baseline.  All modes return identical ids and distances.
    """

    AUTO = "auto"
    SEQUENTIAL = "sequential"
    VECTORIZED = "vectorized"

    def __str__(self) -> str:  # keep f-strings printing 'auto', not the member
        return self.value


@dataclass(frozen=True)
class QueryOptions:
    """Validated, immutable configuration for one ``knn_batch`` call.

    Args:
        k: neighbours per query (>= 1).
        mode: an :class:`ExecutionMode` (or its string value).
        deadline_s: optional wall-clock budget for the whole batch; queries
            unfinished at the deadline return their best-so-far neighbours
            and are listed in :attr:`BatchResult.timed_out`.
        lookahead: candidates a tree walk or the lazy cascade heap verifies
            per query per round after the initial ``k`` (1 keeps the classic
            one-at-a-time refinement's counts); a sorted scan ignores it.
        cascade: evaluate bounds that have no batch form (tree nodes,
            CHEBY entries, the sequential baseline)
            through the :mod:`bound cascade <repro.distance.cascade>` —
            cheap dominated tiers ahead of the exact bound.  Results,
            verification counts and all search accounting are identical
            either way; ``False`` forces those bounds to evaluate eagerly
            (the pre-cascade paths, kept for benchmarking and equivalence
            testing).
    """

    k: int = 1
    mode: "Union[ExecutionMode, str]" = ExecutionMode.AUTO
    deadline_s: Optional[float] = None
    lookahead: int = 1
    cascade: bool = True

    def __post_init__(self):
        object.__setattr__(self, "mode", ExecutionMode(self.mode))
        object.__setattr__(self, "k", require_int(self.k, "k"))
        object.__setattr__(self, "lookahead", require_int(self.lookahead, "lookahead"))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")


@dataclass
class BatchResult:
    """Outcome of one ``knn_batch`` call.

    ``results[i]`` answers ``queries[i]``; ``timed_out`` lists the query
    indices whose results are partial because the batch deadline fired.
    """

    results: "List[KNNResult]"
    timed_out: "List[int]" = field(default_factory=list)
    elapsed_s: float = 0.0
    rounds: int = 0
    #: database generation the batch was served at (``None`` when the
    #: database has no lifecycle tracking) — the whole batch saw exactly
    #: this version, regardless of concurrent inserts/deletes.
    generation: "Optional[int]" = None

    @property
    def n_queries(self) -> int:
        """Number of queries answered."""
        return len(self.results)

    @property
    def total_verified(self) -> int:
        """Raw-series verifications summed over the batch."""
        return sum(r.n_verified for r in self.results)

    @property
    def pruning_power(self) -> float:
        """Aggregate paper Eq. (14): batch verifications over batch candidates."""
        total = sum(r.n_total for r in self.results)
        return self.total_verified / total if total else 0.0
