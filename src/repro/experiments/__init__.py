"""repro.experiments — the declarative experiment service.

The benchmark matrix as data: frozen :class:`ExperimentSpec` dataclasses
(loadable from TOML/JSON) describe workload family x dataset scale x
reducer x index kind x engine options; :func:`run_experiment` executes the
matrix with warmup/repeat control and writes the per-cell medians into
``BENCH_<spec>.json``, the run's only record; :func:`judge` compares two
such files with the spec's threshold rules.  ``repro experiment run/diff``
is the CLI surface.
"""

from __future__ import annotations

from .gates import GateViolation, diff_cells, evaluate_gates, judge
from .runner import (
    BENCH_SCHEMA_VERSION,
    RunSummary,
    derive_bound_ratios,
    environment_facts,
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
from .workloads import WORKLOADS, make_trial_data, run_workload, supports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "WORKLOAD_FAMILIES",
    "WORKLOADS",
    "EngineSpec",
    "ExperimentSpec",
    "GateRule",
    "GateViolation",
    "ReducerSpec",
    "RunSummary",
    "ScaleSpec",
    "TrialSpec",
    "derive_bound_ratios",
    "diff_cells",
    "environment_facts",
    "evaluate_gates",
    "expand",
    "judge",
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
    "write_bench",
]
