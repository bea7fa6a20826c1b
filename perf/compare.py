"""Compare two sets of benchmark runs, one row per (workload, end-to-end metric).

    python3 perf/run.py --repeat 10 --out perf/out/A.json   # the parent, or the first A/A set
    python3 perf/run.py --repeat 10 --out perf/out/B.json   # the change, or the second set
    python3 perf/compare.py perf/out/A.json perf/out/B.json

Each row gives both medians and quartiles, the run-to-run spread (the
distance between the quartiles as a share of the median, the larger of the
two sides), the metric's bound, how much worse B's median is than A's, and a
verdict: ``regressed`` when B is worse by more than the bound; ``unresolved``
when the spread is wider than the bound, unless every run of B reads better
than every run of A; ``ok`` otherwise.  Exit code 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from metrics import END_TO_END


def load_runs(path: str) -> "Dict[Tuple[str, str], List[float]]":
    """``{(workload, metric): [value per run]}`` from a ``run.py --out`` file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: "Dict[Tuple[str, str], List[float]]" = defaultdict(list)
    for run in runs:
        if not run.get("correct", False):
            raise SystemExit(f"{path}: run {run.get('workload')} seed {run.get('seed')} was incorrect")
        for name, entry in run["metrics"].items():
            values[(run["workload"], name)].append(float(entry["value"]))
    return values


def quartiles(values: "List[float]") -> "Tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: "List[float]") -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: "List[float]", b: "List[float]", better: str, bound: float):
    """``(worse_by, spread, verdict)`` of set ``b`` against set ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a)
    widest = max(spread(a), spread(b))
    b_always_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if worse_by > bound:
        return worse_by, widest, "regressed"
    if widest > bound and not b_always_better:
        return worse_by, widest, "unresolved"
    return worse_by, widest, "ok"


def compare(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    specs = {m.name: m for m in END_TO_END}
    header = (
        f"{'workload':<13} {'metric':<17} {'unit':<5} {'A q1':>10} {'A med':>10} {'A q3':>10} "
        f"{'B q1':>10} {'B med':>10} {'B q3':>10} {'spread':>7} {'bound':>6} {'worse by':>9}  verdict"
    )
    print(header)
    worst = 0
    for (workload, name), a in runs_a.items():
        spec = specs.get(name)
        b = runs_b.get((workload, name))
        if spec is None or not b:
            continue
        worse_by, widest, word = verdict(a, b, spec.better, spec.bound)
        qa, qb = quartiles(a), quartiles(b)
        print(
            f"{workload:<13} {name:<17} {spec.unit:<5} "
            f"{qa[0]:>10.3f} {qa[1]:>10.3f} {qa[2]:>10.3f} "
            f"{qb[0]:>10.3f} {qb[1]:>10.3f} {qb[2]:>10.3f} "
            f"{widest:>7.1%} {spec.bound:>6.0%} {worse_by:>+9.1%}  {word}"
        )
        worst = max(worst, {"ok": 0, "unresolved": 0, "regressed": 1}[word])
    return worst


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
