"""Regression gates: judge a run's cells against a committed baseline.

:func:`judge` applies a spec's :class:`repro.experiments.GateRule`
thresholds to two cell summaries (baseline vs current, both in the
``BENCH_<spec>.json`` ``cells`` shape) in one walk over every gated
(cell, rule) pair.  It returns the comparison as table rows with a verdict
each — ``ok``, ``FAIL``, ``new`` (no baseline value) or ``missing`` (a
gated baseline value the current run lacks) — plus a
:class:`GateViolation` for every ``FAIL`` and ``missing`` row.
:func:`diff_cells` and :func:`evaluate_gates` are its two halves;
``repro experiment diff`` prints both and exits non-zero on a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.report import _ms_display
from .spec import ExperimentSpec, GateRule

__all__ = ["GateViolation", "judge", "evaluate_gates", "diff_cells"]


@dataclass(frozen=True)
class GateViolation:
    """One threshold crossing: the rule, the cell, and the numbers.

    ``current`` and ``change_pct`` are ``None`` when the current run lacks
    the gated metric (or the whole cell) that the baseline has.
    """

    rule: GateRule
    cell: str
    baseline: float
    current: Optional[float]
    change_pct: Optional[float]

    def describe(self) -> str:
        """Human-readable one-liner naming the violated threshold.

        Seconds-valued metrics display in milliseconds (``*_ms``) so every
        duration in a diff reads in one unit; the percent change is
        scale-invariant, so the judgement is identical either way.
        """
        shown, scale = _ms_display(self.rule.metric)
        if self.current is None:
            return (
                f"{self.cell}: {shown} {self.baseline * scale:.6g} -> missing "
                f"from the current run"
            )
        sign = "+" if self.change_pct >= 0 else ""
        return (
            f"{self.cell}: {shown} {self.baseline * scale:.6g} -> "
            f"{self.current * scale:.6g} ({sign}{self.change_pct:.1f}%) violates "
            f"max {self.rule.direction} of {self.rule.limit_pct:g}%"
        )


def _change_pct(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline) * 100.0


def _violates(rule: GateRule, change_pct: float) -> bool:
    if rule.direction == "increase":
        return change_pct > rule.limit_pct
    return change_pct < -rule.limit_pct


def judge(
    spec: ExperimentSpec,
    baseline_cells: "Sequence[Dict]",
    current_cells: "Sequence[Dict]",
) -> "Tuple[List[Dict], List[GateViolation]]":
    """Every gated comparison of ``current`` against ``baseline``, as
    ``(rows, violations)``.

    A rule applies to each cell whose workload matches (or to every cell
    when the rule names none) and which has the rule's metric on either
    side.  Current cells come first in their order, then the baseline cells
    the current run lacks.  A metric only the current run has is ``new``
    and cannot regress; one only the baseline has is ``missing`` and is a
    violation, so a cell that silently stops running fails the diff.

    Row values are unit-normalized: seconds-valued metrics (``*_s``,
    excluding ``*_per_s`` rates) render in milliseconds under a ``*_ms``
    metric label, matching ``repro stats``.  The verdict works on percent
    change, which scaling cannot affect.  The count of violations is
    recorded on the ``experiments.gate_violations`` counter.
    """
    baseline = {cell["cell"]: cell for cell in baseline_cells}
    current_keys = {cell["cell"] for cell in current_cells}
    pairs = [(cell, baseline.get(cell["cell"])) for cell in current_cells]
    pairs += [(None, cell) for key, cell in baseline.items() if key not in current_keys]
    rows: "List[Dict]" = []
    violations: "List[GateViolation]" = []
    for cur, base in pairs:
        key, workload = (cur or base)["cell"], (cur or base)["workload"]
        for rule in spec.gates:
            if rule.workload is not None and workload != rule.workload:
                continue
            current_value = None if cur is None else cur["metrics"].get(rule.metric)
            baseline_value = None if base is None else base["metrics"].get(rule.metric)
            if current_value is None and baseline_value is None:
                continue
            shown, scale = _ms_display(rule.metric)
            row = {
                "cell": key,
                "metric": shown,
                "baseline": "-" if baseline_value is None else baseline_value * scale,
                "current": "-" if current_value is None else current_value * scale,
                "change_pct": "-",
                "limit": f"{rule.direction} {rule.limit_pct:g}%",
            }
            if baseline_value is None:
                row["verdict"] = "new"
            elif current_value is None:
                row["verdict"] = "missing"
                violations.append(GateViolation(rule, key, baseline_value, None, None))
            else:
                change = _change_pct(baseline_value, current_value)
                row["change_pct"] = round(change, 2)
                row["verdict"] = "ok"
                if _violates(rule, change):
                    row["verdict"] = "FAIL"
                    violations.append(
                        GateViolation(rule, key, baseline_value, current_value, change)
                    )
            rows.append(row)
    if violations:
        obs.count("experiments.gate_violations", len(violations))
    return rows, violations


def evaluate_gates(
    spec: ExperimentSpec,
    baseline_cells: "Sequence[Dict]",
    current_cells: "Sequence[Dict]",
) -> "List[GateViolation]":
    """Every gate violation of ``current`` against ``baseline`` (see
    :func:`judge`)."""
    return judge(spec, baseline_cells, current_cells)[1]


def diff_cells(
    spec: ExperimentSpec,
    baseline_cells: "Sequence[Dict]",
    current_cells: "Sequence[Dict]",
) -> "List[Dict]":
    """Gated-metric comparison rows, one per cell x applicable rule (see
    :func:`judge`)."""
    return judge(spec, baseline_cells, current_cells)[0]
