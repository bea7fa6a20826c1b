"""The repository benchmark: four workloads, measured from the outside.

Driver form — one workload, one JSON object on the last line of stdout::

    python3 perf/run.py --workload knn_scan --seed 11 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the traced
pass instead and prints every per-layer metric.  Human form — every workload,
each run in a fresh process, one table::

    python3 perf/run.py [--trace] [--smoke] [--repeat N] [--out results.json]

See ``perf/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import harness
import ingest
import knn
import serve
from metrics import END_TO_END, end_to_end_payload, per_layer_payload
from oracle import Tally
from spans import Tracer

MODULES = {"knn_scan": knn, "knn_tree": knn, "serve_tcp": serve, "ingest_mixed": ingest}
WORKLOADS = tuple(MODULES)
DEFAULT_SEED = 11
DEFAULT_SECONDS = 10


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one pass of one workload; returns ``(metric values, Tally)``."""
    module = MODULES[workload]
    scale = harness.SMOKE if smoke else harness.FULL
    made = module.make_inputs(seed, scale, seconds)
    tally = Tally()
    if not trace:
        return module.end_to_end(workload, made, scale, seconds, tally), tally
    tracer = Tracer()
    try:
        values = module.traced(workload, made, scale, tally, tracer)
    finally:
        tracer.write(harness.OUT / f"trace_{workload}.json")
    return values, tally


def driver_main(args) -> int:
    values, tally = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    for line in tally.report():
        print(line)
    payload = per_layer_payload(values) if args.trace else end_to_end_payload(values)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": payload,
    }))
    return 0 if tally.correct else 1


# ----------------------------------------------------------------------
# human form
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, args) -> dict:
    command = [
        sys.executable, str(harness.PERF / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=str(harness.ROOT))
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{workload} seed {seed} printed no result (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}"
        )
    result.update(workload=workload, seed=seed, trace=args.trace,
                  wall_s=time.perf_counter() - started, phases=lines[:-1],
                  exit_code=done.returncode)
    return result


def human_main(args) -> int:
    runs = []
    specs = {m.name: m for m in END_TO_END}
    for workload in args.only or WORKLOADS:
        for repeat in range(args.repeat):
            result = _child(workload, args.seed + repeat, args)
            runs.append(result)
            print(f"\n{workload}  seed {result['seed']}  "
                  f"{'traced pass' if args.trace else 'end to end'}  "
                  f"({result['wall_s']:.1f} s wall)")
            print(f"  {'metric':<40} {'value':>14}  {'unit':<7} bound")
            for name, entry in result["metrics"].items():
                bound = f"{specs[name].bound:.0%}" if name in specs else "-"
                print(f"  {name:<40} {entry['value']:>14.4f}  {entry['unit']:<7} {bound}")
            share = result["failed"] / result["attempted"]
            print(f"  {'failed_share':<40} {share:>14.4f}  {'ratio':<7} 0%"
                  f"   ({result['failed']} of {result['attempted']} operations)")
            for line in result["phases"]:
                print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1)
        print(f"\nwrote {args.out}")
    bad = [r for r in runs if not r["correct"] or r["exit_code"] != 0]
    for r in bad:
        print(f"FAILED: {r['workload']} seed {r['seed']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run just this one (driver form)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one end-to-end pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced pass and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="256 rows x 64 points: checks the plumbing, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="human form: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--only", action="append", choices=WORKLOADS,
                        help="human form: restrict to these workloads")
    parser.add_argument("--out", help="human form: write every run's result as JSON")
    args = parser.parse_args(argv)
    if args.workload:
        return driver_main(args)
    return human_main(args)


if __name__ == "__main__":
    sys.exit(main())
