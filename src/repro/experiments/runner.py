"""The experiment runner: spec -> trials -> ``BENCH_<spec>.json``.

:func:`run_experiment` expands a spec's matrix, executes every supported
trial with warmup/repeat control, captures each trial's obs counters (a
fresh metrics registry and span recorder swapped in around the workload
call, so trials never contaminate each other or the caller), keeps each cell's
per-repeat derived metrics, and finally writes the ``BENCH_<spec>.json``
record — per-cell medians of the derived metrics plus pruning-counter
ratios (the worst repeat of a pass/fail metric) — into the chosen
directory.  That file is the run's only record.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from .. import obs
from .spec import ExperimentSpec, TrialSpec, expand, spec_to_dict
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
    "environment_facts",
]

#: schema tag of the ``BENCH_<spec>.json`` trajectory files
BENCH_SCHEMA_VERSION = "repro.experiments/1"

PathLike = Union[str, pathlib.Path]


@dataclass
class RunSummary:
    """What one matrix execution produced (returned by :func:`run_experiment`)."""

    spec: ExperimentSpec
    bench_path: "Optional[pathlib.Path]"
    cells: "List[Dict]" = field(default_factory=list)
    n_trials: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    elapsed_s: float = 0.0


def derive_bound_ratios(counters: "Dict[str, int]") -> "Dict[str, float]":
    """Per-bound pruning ratios reconstructed from a trial's obs counters.

    ``pruned_ratio.<bound>`` is the fraction of representation-stage
    candidates that bound discarded; ``verified_ratio`` is the fraction that
    survived to raw verification (the aggregate pruning power, Eq. 14).
    Empty when the trial ran no filter-and-refine queries.
    """
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


def run_trial(trial: TrialSpec) -> "tuple[Dict[str, float], float]":
    """Execute one trial under a fresh obs capture.

    Returns ``(derived_metrics, elapsed_s)``; the derived metrics include
    the pruning-counter ratios reconstructed from the trial's counters.
    The caller's registry/recorder are untouched — the trial records into
    its own.
    """
    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    previous_recorder = obs.set_recorder(obs.SpanRecorder(enabled=True))
    started = time.perf_counter()
    try:
        with obs.span("experiments.trial"):
            derived = dict(run_workload(trial))
        elapsed = time.perf_counter() - started
    finally:
        obs.set_registry(previous_registry)
        obs.set_recorder(previous_recorder)
    derived.update(derive_bound_ratios(registry.snapshot()["counters"]))
    return derived, elapsed


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
    bench_dir: "Optional[PathLike]",
    progress: "Optional[Callable[[str], None]]" = None,
) -> RunSummary:
    """Execute the spec's matrix end to end and write its BENCH file into
    ``bench_dir`` (``None`` writes nothing); see the module docstring."""
    say = progress or (lambda message: None)
    started = time.perf_counter()
    trials = expand(spec)
    say(
        f"experiment {spec.name!r}: "
        f"{len(trials)} trials over {len(trials) // spec.repeats} cells"
    )
    per_cell: "Dict[str, Dict[str, List[float]]]" = {}
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
                derived, elapsed = run_trial(trial)
            except Exception as exc:  # report the failure, keep the matrix going
                n_failed += 1
                obs.count("experiments.trial_failures")
                say(f"  trial {trial.index} ({trial.cell_key}) FAILED: {exc}")
                continue
            n_ok += 1
            obs.count("experiments.trials")
            obs.observe("experiments.trial_wall_s", elapsed)
            series = per_cell.setdefault(trial.cell_key, {})
            for name, value in derived.items():
                series.setdefault(name, []).append(float(value))
            say(f"  trial {trial.index} ({trial.cell_key}) {elapsed:.2f}s")
    summary = RunSummary(
        spec=spec,
        bench_path=None,
        cells=summarise_cells(spec, per_cell),
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
def environment_facts() -> "Dict[str, object]":
    """Interpreter and platform facts written into every BENCH header, so a
    regression can be told apart from a machine change."""
    import numpy

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def write_bench(summary: RunSummary, bench_dir: PathLike) -> pathlib.Path:
    """Write the run's ``BENCH_<spec>.json`` trajectory summary, creating
    ``bench_dir`` if it does not exist yet."""
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "spec": spec_to_dict(summary.spec),
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
    """Read a ``BENCH_<spec>.json`` file back, checking its schema tag.

    Older committed files also carry an ``experiment_id`` key; nothing
    reads it."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trajectory schema {payload.get('schema')!r} in {path} "
            f"(expected {BENCH_SCHEMA_VERSION!r})"
        )
    return payload
