"""Micro-benchmark: batched reduction kernels vs the per-row scalar path.

Times ``reducer.transform_batch(matrix)`` against ``[reducer.transform(row)
for row in matrix]`` for every registered reducer, asserts the two produce
bit-identical representations (the ``transform_batch`` contract), and
writes a JSON report with per-reducer timings and speedups.

``--report`` defaults to ``benchmarks/results/reduction_batch.report.json``
(the committed artifact; ``make verify-reduction`` writes its own copy under
``/tmp``); sizes are tunable with ``--rows``/``--length``/``--budget``/
``--repeats``.  SAPLA's batch path is a lock-step kernel over blocks of 128
rows, so it is measured at ``--sapla-rows`` (default 1024): a few dozen rows
cannot show what a block amortises.  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_reduction_batch.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.reduction import REDUCERS  # noqa: E402

DEFAULT_REPORT = ROOT / "benchmarks" / "results" / "reduction_batch.report.json"


def _rep_key(rep):
    """Bit-exact key (mirrors tests/reduction/test_transform_batch.py)."""
    segments = getattr(rep, "segments", None)
    if segments is not None:
        return tuple(
            (s.start, s.end, np.float64(s.a).tobytes(), np.float64(s.b).tobytes())
            for s in segments
        )
    coefficients = getattr(rep, "coefficients", None)
    if coefficients is not None:
        return np.asarray(coefficients, dtype=float).tobytes()
    symbols = getattr(rep, "symbols", None)
    if symbols is not None:
        return tuple(symbols)
    raise TypeError(f"no bit-exact key for {type(rep).__name__}")


def _best_of(repeats: int, fn) -> float:
    """Best wall time of ``repeats`` runs, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def bench_reducer(name: str, matrix: np.ndarray, budget: int, repeats: int) -> dict:
    reducer = REDUCERS[name](budget)
    scalar_reps = [reducer.transform(row) for row in matrix]
    batch_reps = reducer.transform_batch(matrix)
    identical = all(
        _rep_key(a) == _rep_key(b) for a, b in zip(scalar_reps, batch_reps)
    )
    if not identical:
        raise AssertionError(f"{name}: transform_batch diverged from transform")
    scalar_ms = _best_of(repeats, lambda: [reducer.transform(row) for row in matrix])
    batch_ms = _best_of(repeats, lambda: reducer.transform_batch(matrix))
    return {
        "scalar_ms": round(scalar_ms, 3),
        "batch_ms": round(batch_ms, 3),
        "speedup": round(scalar_ms / batch_ms, 2) if batch_ms else None,
        "bit_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--sapla-rows", type=int, default=1024)
    parser.add_argument("--length", type=int, default=256)
    parser.add_argument("--budget", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--report", type=pathlib.Path, default=DEFAULT_REPORT)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    rows = {name: args.rows for name in REDUCERS}
    rows["SAPLA"] = args.sapla_rows
    matrix = np.cumsum(rng.normal(size=(max(rows.values()), args.length)), axis=1)

    results = {}
    for name in sorted(REDUCERS):
        # APLA's O(n^2) error matrix makes full-length rows impractical;
        # bench it on a shorter prefix, as the paper's figures do
        bench_matrix = matrix[: rows[name], :64] if name == "APLA" else matrix[: rows[name]]
        results[name] = bench_reducer(name, bench_matrix, args.budget, args.repeats)
        results[name]["rows"], results[name]["length"] = bench_matrix.shape
        print(
            f"{name:7s} {bench_matrix.shape[0]:4d} x {bench_matrix.shape[1]:4d} "
            f"scalar {results[name]['scalar_ms']:9.3f} ms  "
            f"batch {results[name]['batch_ms']:9.3f} ms  "
            f"x{results[name]['speedup']}"
        )

    report = {
        "meta": {
            "rows": args.rows,
            "sapla_rows": args.sapla_rows,
            "length": args.length,
            "budget": args.budget,
            "repeats": args.repeats,
        },
        "reducers": results,
    }
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
