"""The experiment runner: spec -> trials -> store -> ``BENCH_<spec>.json``.

:func:`run_experiment` expands a spec's matrix, executes every supported
trial with warmup/repeat control, captures a schema-versioned RunReport per
trial (metrics registry + span tree swapped in around the workload call, so
trials never contaminate each other or the caller), records each trial into
the :class:`repro.experiments.ResultsStore`, and finally writes the
``BENCH_<spec>.json`` trajectory summary — per-cell medians of the derived
metrics plus pruning-counter ratios (the worst repeat of a pass/fail
metric) — at the chosen root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from .. import obs
from ..obs.report import RunReport
from .spec import ExperimentSpec, TrialSpec, expand, spec_to_dict
from .store import ResultsStore, environment_facts
from .workloads import run_workload, supports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "RunSummary",
    "run_experiment",
    "run_trial",
    "derive_bound_ratios",
    "summarise_cells",
    "write_bench",
    "load_bench",
]

#: schema tag of the ``BENCH_<spec>.json`` trajectory files
BENCH_SCHEMA_VERSION = "repro.experiments/1"

PathLike = Union[str, pathlib.Path]


@dataclass
class RunSummary:
    """What one matrix execution produced (returned by :func:`run_experiment`)."""

    spec: ExperimentSpec
    experiment_id: int
    store_path: pathlib.Path
    bench_path: "Optional[pathlib.Path]"
    cells: "List[Dict]" = field(default_factory=list)
    n_trials: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    elapsed_s: float = 0.0


def derive_bound_ratios(report: RunReport) -> "Dict[str, float]":
    """Per-bound pruning ratios reconstructed from a trial's obs counters.

    ``pruned_ratio.<bound>`` is the fraction of representation-stage
    candidates that bound discarded; ``verified_ratio`` is the fraction that
    survived to raw verification (the aggregate pruning power, Eq. 14).
    Empty when the trial ran no filter-and-refine queries.
    """
    counters = report.counters
    verified = counters.get("knn.entries_refined", 0)
    pruned = {
        mode: counters[name]
        for mode, name in obs.PRUNED_METRICS.items()
        if counters.get(name)
    }
    total = verified + sum(pruned.values())
    if not total:
        return {}
    ratios = {f"pruned_ratio.{mode}": n / total for mode, n in sorted(pruned.items())}
    ratios["verified_ratio"] = verified / total
    return ratios


def run_trial(trial: TrialSpec) -> "tuple[Dict[str, float], RunReport, float]":
    """Execute one trial under a fresh obs capture.

    Returns ``(derived_metrics, report, elapsed_s)``.  The derived metrics
    include the pruning-counter ratios reconstructed from the report, and
    the report's meta carries the trial's matrix axes.  The caller's
    registry/recorder are untouched — the trial records into its own.
    """
    previous_registry = obs.set_registry(obs.MetricsRegistry(enabled=True))
    previous_recorder = obs.set_recorder(obs.SpanRecorder(enabled=True))
    started = time.perf_counter()
    try:
        with obs.span("experiments.trial"):
            derived = dict(run_workload(trial))
        elapsed = time.perf_counter() - started
        report = RunReport.collect(
            meta={"spec_trial": trial.index, "cell": trial.cell_key, **trial.axes()}
        )
    finally:
        obs.set_registry(previous_registry)
        obs.set_recorder(previous_recorder)
    derived.update(derive_bound_ratios(report))
    return derived, report, elapsed


#: pass/fail metrics: a cell keeps its worst repeat, so one repeat that
#: served a wrong answer fails the cell however many repeats were right
_WORST_OF = {"results_identical": min}


def summarise_cells(
    spec: ExperimentSpec, per_cell: "Dict[str, Dict[str, List[float]]]"
) -> "List[Dict]":
    """Per-cell metrics in matrix order (the BENCH ``cells`` rows): the
    median over repeats, except ``results_identical``, which is the
    minimum."""
    axes_by_key: "Dict[str, Dict]" = {}
    for trial in expand(spec):
        if trial.repeat == 0:
            axes = trial.axes()
            axes.pop("repeat")
            axes.pop("seed")
            axes_by_key[trial.cell_key] = axes
    cells = []
    for cell_key, axes in axes_by_key.items():
        series = per_cell.get(cell_key)
        if not series:
            continue
        cells.append(
            {
                "cell": cell_key,
                **axes,
                "repeats": max(len(values) for values in series.values()),
                "metrics": {
                    name: float(_WORST_OF.get(name, statistics.median)(values))
                    for name, values in sorted(series.items())
                },
            }
        )
    return cells


def run_experiment(
    spec: ExperimentSpec,
    store_path: PathLike,
    bench_dir: "Optional[PathLike]" = ".",
    progress: "Optional[Callable[[str], None]]" = None,
) -> RunSummary:
    """Execute the spec's matrix end to end; see the module docstring."""
    say = progress or (lambda message: None)
    started = time.perf_counter()
    trials = expand(spec)
    summary: "Optional[RunSummary]" = None
    with ResultsStore(store_path) as store:
        experiment_id = store.create_experiment(spec)
        say(
            f"experiment {spec.name!r} (id {experiment_id}): "
            f"{len(trials)} trials over {len(trials) // spec.repeats} cells"
        )
        n_ok = n_failed = n_skipped = 0
        with obs.span("experiments.run"):
            for trial in trials:
                if not supports(trial):
                    n_skipped += 1
                    obs.count("experiments.trials_skipped")
                    continue
                for _ in range(spec.warmup if trial.repeat == 0 else 0):
                    run_workload(trial)
                try:
                    derived, report, elapsed = run_trial(trial)
                except Exception as exc:  # record the failure, keep the matrix going
                    n_failed += 1
                    obs.count("experiments.trial_failures")
                    say(f"  trial {trial.index} ({trial.cell_key}) FAILED: {exc}")
                    store.record_trial(
                        experiment_id,
                        trial,
                        RunReport.collect(meta={"error": str(exc), **trial.axes()}),
                        {},
                        status="failed",
                    )
                    continue
                n_ok += 1
                obs.count("experiments.trials")
                obs.observe("experiments.trial_wall_s", elapsed)
                store.record_trial(
                    experiment_id, trial, report, derived, elapsed_s=elapsed
                )
                say(f"  trial {trial.index} ({trial.cell_key}) {elapsed:.2f}s")
        cells = summarise_cells(spec, store.cell_metrics(experiment_id))
        summary = RunSummary(
            spec=spec,
            experiment_id=experiment_id,
            store_path=pathlib.Path(store_path),
            bench_path=None,
            cells=cells,
            n_trials=n_ok,
            n_skipped=n_skipped,
            n_failed=n_failed,
            elapsed_s=time.perf_counter() - started,
        )
    if bench_dir is not None:
        summary.bench_path = write_bench(summary, bench_dir)
        say(f"wrote {summary.bench_path}")
    return summary


# ----------------------------------------------------------------------
# BENCH_<spec>.json trajectory files
# ----------------------------------------------------------------------
def write_bench(summary: RunSummary, bench_dir: PathLike) -> pathlib.Path:
    """Write the run's ``BENCH_<spec>.json`` trajectory summary, creating
    ``bench_dir`` if it does not exist yet."""
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "spec": spec_to_dict(summary.spec),
        "experiment_id": summary.experiment_id,
        "created_unix": time.time(),
        "environment": environment_facts(),
        "n_trials": summary.n_trials,
        "n_skipped": summary.n_skipped,
        "n_failed": summary.n_failed,
        "elapsed_s": summary.elapsed_s,
        "cells": summary.cells,
    }
    path = pathlib.Path(bench_dir) / f"BENCH_{summary.spec.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def load_bench(path: PathLike) -> dict:
    """Read a ``BENCH_<spec>.json`` file back, checking its schema tag."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trajectory schema {payload.get('schema')!r} in {path} "
            f"(expected {BENCH_SCHEMA_VERSION!r})"
        )
    return payload
