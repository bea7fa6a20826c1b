"""Declarative experiment specs: a frozen matrix, expanded deterministically.

An :class:`ExperimentSpec` describes a benchmark matrix — workload family x
dataset scale x reducer x :class:`repro.IndexKind` x engine options — plus
run control (seed, warmup, repeats) and the regression-gate threshold rules
the spec's results are judged against.  Specs are plain data: loadable from
TOML or JSON (:func:`load_spec`), serialisable back (:func:`spec_to_dict`),
and expanded into an ordered tuple of :class:`TrialSpec` rows by
:func:`expand` — same spec, same trials, same per-trial seeds, every time.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..data import DATASETS
from ..engine import ExecutionMode
from ..kinds import IndexKind
from ..reduction import REDUCERS

__all__ = [
    "WORKLOAD_FAMILIES",
    "ScaleSpec",
    "ReducerSpec",
    "EngineSpec",
    "GateRule",
    "ExperimentSpec",
    "TrialSpec",
    "expand",
    "load_spec",
    "spec_from_dict",
    "spec_to_dict",
]

#: the workload families the runner knows how to execute
#: (implementations live in :mod:`repro.experiments.workloads`)
WORKLOAD_FAMILIES = (
    "batch_knn", "ingest", "pruning", "reduction", "serving", "continuous"
)

#: multiplier deriving per-cell seeds from the spec seed (any odd prime
#: keeps distinct cells on distinct streams; the value is part of the
#: reproducibility contract, so never change it silently)
_SEED_STRIDE = 7919

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class ScaleSpec:
    """One dataset scale of the matrix: its rows, their length and count.

    ``dataset`` names a dataset of the synthetic archive
    (:class:`repro.data.UCRLikeArchive`), loaded at this length, series and
    query count; empty means seeded random walks.
    """

    name: str
    length: int = 128
    n_series: int = 256
    n_queries: int = 16
    dataset: str = ""
    #: rows streamed by the ``ingest`` and ``continuous`` workloads
    #: (0 = derived: half of ``n_series``, at least 32); ``continuous``
    #: deletes every 8th of them again
    n_inserts: int = 0
    #: concurrent in-flight requests driven by the ``serving`` workload's
    #: loopback load (0 = derived: ``max(4 * n_queries, 64)``)
    n_inflight: int = 0
    #: standing subscriptions registered by the ``continuous`` workload,
    #: every 4th a range watch (0 = derived: ``max(n_queries, 8)``)
    n_subscriptions: int = 0

    def __post_init__(self):
        if self.length < 8 or self.n_series < 4 or self.n_queries < 1:
            raise ValueError(f"scale {self.name!r} is too small to measure")
        if self.n_inserts < 0:
            raise ValueError("n_inserts must be >= 0")
        if self.n_inflight < 0:
            raise ValueError("n_inflight must be >= 0")
        if self.n_subscriptions < 0:
            raise ValueError("n_subscriptions must be >= 0")
        if self.dataset and self.dataset not in DATASETS:
            raise ValueError(
                f"scale {self.name!r}: unknown archive dataset {self.dataset!r}"
            )


@dataclass(frozen=True)
class ReducerSpec:
    """One reducer of the matrix, by paper name and coefficient budget."""

    method: str
    coefficients: int = 12

    def __post_init__(self):
        if self.method not in REDUCERS:
            raise ValueError(
                f"unknown reducer method {self.method!r} (known: {sorted(REDUCERS)})"
            )
        if self.coefficients < 2:
            raise ValueError("coefficients must be >= 2")

    @property
    def label(self) -> str:
        return f"{self.method}-{self.coefficients}"


@dataclass(frozen=True)
class EngineSpec:
    """Engine/durability options applied to every trial of a cell.

    ``fsync`` takes the :class:`repro.lifecycle.FsyncPolicy` values plus
    ``"off"`` (no WAL at all); only the ``ingest`` workload reads it.
    ``shards`` is the :class:`repro.serving.ShardedEngine` shard count; only
    the ``serving`` and ``continuous`` workloads read it (like ``fsync``, it
    still appears in every cell label when non-default — the label
    describes the spec'd options, not which family consumes each one).
    """

    k: int = 8
    mode: str = "auto"
    lookahead: int = 1
    fsync: str = "batch"
    fsync_batch: int = 64
    shards: int = 1

    def __post_init__(self):
        if self.k < 1 or self.lookahead < 1:
            raise ValueError("k and lookahead must be >= 1")
        modes = [mode.value for mode in ExecutionMode]
        if self.mode not in modes:
            raise ValueError(f"unknown engine mode {self.mode!r} (known: {modes})")
        if self.fsync not in ("always", "batch", "never", "off"):
            raise ValueError(f"unknown fsync policy {self.fsync!r}")
        if self.fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @property
    def label(self) -> str:
        parts = [f"k{self.k}", self.mode]
        if self.fsync != "batch":
            parts.append(f"fsync-{self.fsync}")
        if self.shards > 1:
            parts.append(f"sh{self.shards}")
        return "-".join(parts)


@dataclass(frozen=True)
class GateRule:
    """One regression threshold: flag ``metric`` moving the bad direction.

    ``direction="increase"`` treats growth beyond ``limit_pct`` percent over
    the baseline as a regression (latencies); ``"decrease"`` flags drops
    beyond ``limit_pct`` (throughput, pruning ratios).  ``workload`` limits
    the rule to one family; ``None`` applies it wherever the metric appears.
    """

    metric: str
    limit_pct: float
    direction: str = "increase"
    workload: Optional[str] = None

    def __post_init__(self):
        if self.direction not in ("increase", "decrease"):
            raise ValueError(f"direction must be increase/decrease, got {self.direction!r}")
        if self.limit_pct <= 0:
            raise ValueError("limit_pct must be positive")
        if self.workload is not None and self.workload not in WORKLOAD_FAMILIES:
            raise ValueError(f"unknown workload {self.workload!r} in gate rule")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full declarative experiment: the matrix, run control, and gates."""

    name: str
    seed: int = 7
    warmup: int = 0
    repeats: int = 1
    workloads: "Tuple[str, ...]" = ("batch_knn",)
    scales: "Tuple[ScaleSpec, ...]" = (ScaleSpec("default"),)
    reducers: "Tuple[ReducerSpec, ...]" = (ReducerSpec("PAA"),)
    indexes: "Tuple[IndexKind, ...]" = (IndexKind.NONE,)
    engines: "Tuple[EngineSpec, ...]" = (EngineSpec(),)
    gates: "Tuple[GateRule, ...]" = ()

    def __post_init__(self):
        if not self.name or any(c in self.name for c in "/\\ "):
            raise ValueError(f"spec name {self.name!r} must be a bare token")
        if self.repeats < 1 or self.warmup < 0:
            raise ValueError("repeats must be >= 1 and warmup >= 0")
        unknown = [w for w in self.workloads if w not in WORKLOAD_FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown workload families {unknown} (known: {list(WORKLOAD_FAMILIES)})"
            )
        if not (self.workloads and self.scales and self.reducers and self.indexes and self.engines):
            raise ValueError("every matrix axis needs at least one entry")


@dataclass(frozen=True)
class TrialSpec:
    """One executable cell-repeat of the expanded matrix."""

    index: int
    workload: str
    scale: ScaleSpec
    reducer: ReducerSpec
    index_kind: IndexKind
    engine: EngineSpec
    repeat: int
    seed: int

    @property
    def cell_key(self) -> str:
        """Stable identity of the matrix cell (repeats share it)."""
        return "|".join(
            (
                self.workload,
                self.scale.name,
                self.reducer.label,
                str(self.index_kind),
                self.engine.label,
            )
        )

    def axes(self) -> "Dict[str, object]":
        """Flat axis columns for BENCH cells and report metadata."""
        return {
            "workload": self.workload,
            "scale": self.scale.name,
            "method": self.reducer.method,
            "coefficients": self.reducer.coefficients,
            "index_kind": str(self.index_kind),
            "engine": self.engine.label,
            "repeat": self.repeat,
            "seed": self.seed,
        }


def expand(spec: ExperimentSpec) -> "Tuple[TrialSpec, ...]":
    """The spec's trials in deterministic matrix order.

    Order is the declared axis order (workload, scale, reducer, index,
    engine), repeats innermost.  Every repeat of a cell shares the cell's
    seed — repeats measure timing variance over identical data — and seeds
    derive from ``spec.seed`` with a fixed stride, so re-expanding the same
    spec always reproduces the same workload inputs.
    """
    trials: "List[TrialSpec]" = []
    cell_index = 0
    for workload in spec.workloads:
        for scale in spec.scales:
            for reducer in spec.reducers:
                for index_kind in spec.indexes:
                    for engine in spec.engines:
                        cell_seed = spec.seed + _SEED_STRIDE * cell_index
                        for repeat in range(spec.repeats):
                            trials.append(
                                TrialSpec(
                                    index=len(trials),
                                    workload=workload,
                                    scale=scale,
                                    reducer=reducer,
                                    index_kind=index_kind,
                                    engine=engine,
                                    repeat=repeat,
                                    seed=cell_seed,
                                )
                            )
                        cell_index += 1
    return tuple(trials)


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------
def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Plain-data view of a spec (inverse of :func:`spec_from_dict`)."""
    payload = dataclasses.asdict(spec)
    payload["indexes"] = [str(kind) for kind in spec.indexes]
    payload["workloads"] = list(spec.workloads)
    return payload


def _tuple_of(cls, rows: "Sequence[dict]", label: str) -> tuple:
    out = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"every {label} entry must be a table/object, got {row!r}")
        try:
            out.append(cls(**row))
        except TypeError as exc:
            raise ValueError(f"bad {label} entry {row!r}: {exc}") from None
    return tuple(out)


def spec_from_dict(payload: dict) -> ExperimentSpec:
    """Build a validated spec from TOML/JSON plain data."""
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)} (known: {sorted(known)})")
    kwargs = dict(payload)
    if "workloads" in kwargs:
        kwargs["workloads"] = tuple(kwargs["workloads"])
    if "scales" in kwargs:
        kwargs["scales"] = _tuple_of(ScaleSpec, kwargs["scales"], "scales")
    if "reducers" in kwargs:
        kwargs["reducers"] = _tuple_of(ReducerSpec, kwargs["reducers"], "reducers")
    if "engines" in kwargs:
        kwargs["engines"] = _tuple_of(EngineSpec, kwargs["engines"], "engines")
    if "gates" in kwargs:
        kwargs["gates"] = _tuple_of(GateRule, kwargs["gates"], "gates")
    if "indexes" in kwargs:
        kwargs["indexes"] = tuple(IndexKind(value) for value in kwargs["indexes"])
    return ExperimentSpec(**kwargs)


def load_spec(path: PathLike) -> ExperimentSpec:
    """Load a spec from a ``.toml`` or ``.json`` file."""
    path = pathlib.Path(path)
    if path.suffix == ".toml":
        import tomllib

        payload = tomllib.loads(path.read_text())
    elif path.suffix == ".json":
        payload = json.loads(path.read_text())
    else:
        raise ValueError(f"spec files are .toml or .json, got {path.name!r}")
    return spec_from_dict(payload)
