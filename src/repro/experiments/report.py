"""Trend reporting over the results store (``repro experiment report``).

Renders the store's per-cell derived metrics across experiments as plain
table rows — newest experiment last, so a regression reads left-to-right —
plus a per-experiment overview (trial counts, wall time, environment drift),
and the aligned plain-text tables every CLI command prints rows with.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence

from .store import ResultsStore

__all__ = ["experiment_rows", "trend_rows", "render_table", "print_table"]


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(title: str, rows: "Sequence[Mapping]") -> str:
    """Render a list of row dicts as an aligned monospace table, one column
    per key any row has (in order of first appearance)."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_format(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells)
    return f"\n{title}\n{rule}\n{header}\n{rule}\n{body}\n{rule}"


def print_table(title: str, rows: "Sequence[Mapping]") -> None:
    """Print a rendered table to stdout."""
    print(render_table(title, rows))


def experiment_rows(store: ResultsStore, name: "Optional[str]" = None) -> "List[Dict]":
    """One overview row per stored experiment (oldest first)."""
    rows: "List[Dict]" = []
    for experiment in store.experiments(name):
        trials = store.trials(experiment["id"])
        ok = [t for t in trials if t["status"] == "ok"]
        rows.append(
            {
                "id": experiment["id"],
                "name": experiment["name"],
                "seed": experiment["seed"],
                "trials_ok": len(ok),
                "trials_failed": len(trials) - len(ok),
                "wall_s": round(sum(t["elapsed_s"] for t in ok), 3),
                "python": store.environment(experiment["id"]).get("python", "?"),
            }
        )
    return rows


def trend_rows(
    store: ResultsStore,
    name: "Optional[str]" = None,
    metric: "Optional[str]" = None,
    workload: "Optional[str]" = None,
) -> "List[Dict]":
    """Per-cell metric medians across experiments: the perf trajectory.

    One row per (cell, metric) with a ``run<id>`` column per experiment.
    ``metric`` filters by substring, ``workload`` by exact family.
    """
    experiments = store.experiments(name)
    series: "Dict[tuple, Dict[int, float]]" = {}
    for experiment in experiments:
        for cell_key, metrics in store.cell_metrics(experiment["id"]).items():
            if workload is not None and not cell_key.startswith(f"{workload}|"):
                continue
            for metric_name, values in metrics.items():
                if metric is not None and metric not in metric_name:
                    continue
                series.setdefault((cell_key, metric_name), {})[experiment["id"]] = float(
                    statistics.median(values)
                )
    rows: "List[Dict]" = []
    for (cell_key, metric_name), by_experiment in sorted(series.items()):
        row: "Dict" = {"cell": cell_key, "metric": metric_name}
        for experiment in experiments:
            value = by_experiment.get(experiment["id"])
            row[f"run{experiment['id']}"] = "-" if value is None else value
        rows.append(row)
    return rows
