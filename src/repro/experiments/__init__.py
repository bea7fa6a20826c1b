"""repro.experiments — the declarative experiment service.

The benchmark matrix as data: frozen :class:`ExperimentSpec` dataclasses
(loadable from TOML/JSON) describe workload family x dataset scale x
reducer x index kind x engine options; :func:`run_experiment` executes the
matrix with warmup/repeat control, records every trial (derived metrics
plus the full obs RunReport) into a stdlib-sqlite3 :class:`ResultsStore`,
and writes a ``BENCH_<spec>.json`` trajectory summary; :func:`evaluate_gates`
judges a run against the last committed baseline with the spec's threshold
rules.  ``repro experiment run/report/diff`` is the CLI surface.
"""

from __future__ import annotations

from .gates import GateViolation, diff_cells, evaluate_gates
from .report import experiment_rows, trend_rows
from .runner import (
    BENCH_SCHEMA_VERSION,
    RunSummary,
    derive_bound_ratios,
    load_bench,
    run_experiment,
    run_trial,
    summarise_cells,
    write_bench,
)
from .spec import (
    WORKLOAD_FAMILIES,
    EngineSpec,
    ExperimentSpec,
    GateRule,
    ReducerSpec,
    ScaleSpec,
    TrialSpec,
    expand,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)
from .store import STORE_SCHEMA_VERSION, ResultsStore, environment_facts
from .workloads import WORKLOADS, make_trial_data, run_workload, supports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "WORKLOAD_FAMILIES",
    "WORKLOADS",
    "EngineSpec",
    "ExperimentSpec",
    "GateRule",
    "GateViolation",
    "ReducerSpec",
    "ResultsStore",
    "RunSummary",
    "ScaleSpec",
    "TrialSpec",
    "derive_bound_ratios",
    "diff_cells",
    "environment_facts",
    "evaluate_gates",
    "expand",
    "experiment_rows",
    "load_bench",
    "load_spec",
    "make_trial_data",
    "run_experiment",
    "run_trial",
    "run_workload",
    "spec_from_dict",
    "spec_to_dict",
    "summarise_cells",
    "supports",
    "trend_rows",
    "write_bench",
]
