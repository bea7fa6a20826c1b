"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``     list the synthetic archive (optionally one family)
``generate``     materialise one dataset to a ``.npz`` file
``reduce``       reduce a series file to a representation JSON
``reconstruct``  rebuild a series from a representation JSON
``knn``          run k-NN over a dataset with a chosen method and index
``ingest``       insert series into a saved database through its WAL
``checkpoint``   fold a database's WAL into its saved state
``compact``      drop tombstoned rows and reclaim space
``shard``        materialise a sharded home (N round-robin shards) from a
                 saved database directory
``serve``        answer k-NN/range queries over TCP (length-prefixed JSON
                 frames) from a saved database or sharded home; see
                 docs/serving.md for the wire protocol and admission knobs
``subscribe``    register a standing query (k-NN / range) against a server
                 or local database and print each pushed notification as a
                 JSON line; see docs/continuous.md
``experiment``   drive the experiment service: ``experiment run <spec.toml>``
                 executes a declarative benchmark matrix (the paper's tables
                 and figures are ``benchmarks/specs/paper.toml``) into an
                 sqlite results store and writes ``BENCH_<spec>.json``;
                 ``experiment report`` renders trend tables from the store;
                 ``experiment diff`` judges the latest run against a committed
                 baseline with the spec's regression gates (non-zero exit on
                 violation)
``stats``        list the metric catalogue or summarise a saved run report

``knn`` and ``serve`` accept ``--report out.json`` to capture the
observability layer (counters, gauges, histograms, span tree) for the run
and write it as a schema-versioned :class:`repro.obs.RunReport`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

import numpy as np

from . import obs
from .data import DATASETS, UCRLikeArchive
from .engine import QueryOptions
from .index import SeriesDatabase
from .io import from_jsonable, load_dataset, save_dataset, to_jsonable
from .kinds import IndexKind
from .reduction import REDUCERS

__all__ = ["main"]


def print_table(title: str, rows) -> None:
    """Print ``rows`` as an aligned table
    (:func:`repro.experiments.report.print_table`), imported on first use so
    that ``repro serve`` starts without loading the experiment service."""
    from .experiments.report import print_table as _print_table

    _print_table(title, rows)


def _read_series(path: str) -> np.ndarray:
    """Load a single series from .npy, .csv or .txt (one value per line)."""
    p = pathlib.Path(path)
    if p.suffix == ".npy":
        series = np.load(p)
    else:
        series = np.loadtxt(p, delimiter="," if p.suffix == ".csv" else None)
    series = np.asarray(series, dtype=float).ravel()
    if series.size == 0:
        raise SystemExit(f"no values found in {path}")
    return series


def _cmd_datasets(args) -> int:
    names = sorted(DATASETS)
    if args.family:
        names = [n for n in names if DATASETS[n] == args.family]
        if not names:
            raise SystemExit(f"no datasets in family {args.family!r}")
    for name in names:
        print(f"{name:<32} {DATASETS[name]}")
    print(f"\n{len(names)} datasets")
    return 0


def _cmd_generate(args) -> int:
    archive = UCRLikeArchive(
        length=args.length, n_series=args.series, n_queries=args.queries
    )
    dataset = archive.load(args.dataset)
    save_dataset(args.output, dataset)
    print(
        f"wrote {args.output}: {dataset.data.shape[0]} series + "
        f"{dataset.queries.shape[0]} queries of length {dataset.length}"
    )
    return 0


def _cmd_reduce(args) -> int:
    import json

    series = _read_series(args.input)
    reducer = REDUCERS[args.method](n_coefficients=args.coefficients)
    representation = reducer.transform(series)
    payload = to_jsonable(representation)
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2))
    recon = reducer.reconstruct(representation)
    print(
        f"{args.method} M={args.coefficients}: n={len(series)} -> "
        f"{args.output}; max deviation {np.abs(series - recon).max():.6g}"
    )
    return 0


def _cmd_reconstruct(args) -> int:
    import json

    payload = json.loads(pathlib.Path(args.input).read_text())
    representation = from_jsonable(payload)
    kind = payload["type"]
    if kind == "segmentation":
        recon = representation.reconstruct()
    else:
        raise SystemExit(
            f"reconstruct currently supports segment representations, got {kind!r} "
            "(use the library API for CHEBY/SAX)"
        )
    np.savetxt(args.output, recon)
    print(f"wrote {args.output}: {len(recon)} points")
    return 0


def _knn_rows(db: SeriesDatabase, dataset, args) -> list:
    k = args.k
    if args.batch:
        options = QueryOptions(k=k, deadline_s=args.deadline)
        results = db.knn_batch(dataset.queries, options).results
    else:
        results = [db.knn(query, k) for query in dataset.queries]
    rows = []
    for qi, (query, result) in enumerate(zip(dataset.queries, results)):
        truth = db.ground_truth(query, k)
        rows.append(
            {
                "query": qi,
                "neighbours": " ".join(map(str, result.ids)),
                "pruning_power": result.pruning_power,
                "accuracy": result.accuracy_against(truth),
            }
        )
    return rows


def _cmd_knn(args) -> int:
    if args.dataset.endswith(".npz"):
        dataset = load_dataset(args.dataset)
    else:
        archive = UCRLikeArchive(length=args.length, n_series=args.series)
        dataset = archive.load(args.dataset)
    reducer = REDUCERS[args.method](n_coefficients=args.coefficients)
    index = None if args.index == "none" else IndexKind(args.index)
    db = SeriesDatabase(reducer, index=index)
    if args.report:
        with obs.capture() as session:
            with obs.span("cli.knn"):
                db.ingest(dataset.data)
                rows = _knn_rows(db, dataset, args)
        report = session.report(
            meta={
                "command": "knn",
                "dataset": dataset.name,
                "method": args.method,
                "coefficients": args.coefficients,
                "index": args.index,
                "k": args.k,
                "batch": bool(args.batch),
                "n_series": int(dataset.data.shape[0]),
                "length": int(dataset.data.shape[1]),
            }
        )
        report.save(args.report)
    else:
        db.ingest(dataset.data)
        rows = _knn_rows(db, dataset, args)
    print_table(
        f"k-NN (k={args.k}, {args.method}, index={args.index}) over {dataset.name}", rows
    )
    if args.report:
        print(f"wrote {args.report}")
    return 0


def _cmd_ingest(args) -> int:
    from .io import open_database
    from .lifecycle import DurabilityOptions

    durability = DurabilityOptions(
        wal=not args.no_wal, fsync=args.fsync, batch_records=args.fsync_batch
    )
    with obs.span("cli.ingest"):
        db = open_database(args.database, durability=durability)
        if args.input.endswith(".npz"):
            try:
                rows = load_dataset(args.input).data
            except KeyError:  # plain archive with just a 'data' matrix
                with np.load(args.input, allow_pickle=False) as archive:
                    rows = np.atleast_2d(np.asarray(archive["data"], dtype=float))
        else:
            rows = np.atleast_2d(_read_series(args.input))
        first = last = None
        for row in rows:
            sid = db.insert(row)
            first = sid if first is None else first
            last = sid
        if db.wal is not None:
            db.wal.sync()
        else:
            from .lifecycle import checkpoint

            checkpoint(db)  # without a WAL the inserts only survive a save
    print(f"inserted {len(rows)} series as ids {first}..{last} into {args.database}")
    return 0


def _cmd_checkpoint(args) -> int:
    from .io import open_database
    from .lifecycle import checkpoint

    with obs.span("cli.checkpoint"):
        db = open_database(args.database)
        report = checkpoint(db)
    print(
        f"checkpointed {report.directory}: {report.live_count} live of "
        f"{report.row_count} rows, folded {report.wal_bytes_folded} WAL bytes"
    )
    return 0


def _cmd_compact(args) -> int:
    from .io import open_database
    from .lifecycle import compact

    with obs.span("cli.compact"):
        db = open_database(args.database)
        report = compact(db)
    print(
        f"compacted {report.directory}: dropped {report.rows_dropped} of "
        f"{report.rows_before} rows, reclaimed {report.reclaimed_bytes} bytes "
        f"({report.reclaimed_fraction:.1%} of raw data)"
    )
    return 0


def _open_serving_target(path: str, shards: int):
    """A query engine for ``serve``: sharded home, db dir, or partition on load."""
    from .io import open_database
    from .serving import MANIFEST_FILENAME, ShardedEngine

    home = pathlib.Path(path)
    if (home / MANIFEST_FILENAME).exists():
        if shards > 1:
            raise SystemExit(
                f"{path} is already a sharded home; --shards only applies "
                "to plain database directories (use 'repro shard' to re-partition)"
            )
        return ShardedEngine.open(home)
    db = open_database(home)
    if shards > 1:
        return ShardedEngine.from_database(db, shards)
    return db


def _cmd_serve(args) -> int:
    import asyncio

    from .serving import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        workers=args.workers,
    )

    async def _run(engine) -> None:
        server = ReproServer(engine, config)
        await server.start()
        shards = getattr(engine, "n_shards", 1)
        print(
            f"serving {args.database} on {config.host}:{server.port} "
            f"({shards} shard(s), max_in_flight={config.max_in_flight}, "
            f"queue_depth={config.queue_depth}); Ctrl-C to stop"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    def _serve_once() -> None:
        engine = _open_serving_target(args.database, args.shards)
        try:
            asyncio.run(_run(engine))
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            close = getattr(engine, "close", None)
            if callable(close):
                close()

    if args.report:
        with obs.capture() as session:
            with obs.span("cli.serve"):
                _serve_once()
        session.report(
            meta={"command": "serve", "database": args.database, "shards": args.shards}
        ).save(args.report)
        print(f"wrote {args.report}")
    else:
        _serve_once()
    return 0


def _build_standing_query(args):
    """A standing query from the ``subscribe`` command's flags."""
    from .continuous import KnnWatch, RangeWatch

    if not args.query:
        raise SystemExit(f"--kind {args.kind} needs --query FILE")
    if args.kind == "knn":
        return KnnWatch(query=_read_series(args.query), k=args.k)
    if args.radius is None:
        raise SystemExit("--kind range needs --radius")
    return RangeWatch(query=_read_series(args.query), radius=args.radius)


def _cmd_subscribe(args) -> int:
    import json

    from .client import connect

    query = _build_standing_query(args)
    received = 0
    with obs.span("cli.subscribe"):
        client = connect(args.database)
        try:
            subscription = client.subscribe(query)
            print(
                f"subscribed {subscription.id} ({query.kind}) on {args.database}; "
                "notifications follow as JSON lines",
                file=sys.stderr,
            )
            try:
                while args.count <= 0 or received < args.count:
                    try:
                        note = subscription.next(timeout=args.timeout)
                    except TimeoutError:
                        print(
                            f"no notification within {args.timeout}s; stopping",
                            file=sys.stderr,
                        )
                        break
                    except (StopIteration, ConnectionError):
                        break
                    print(json.dumps(note.to_payload(), sort_keys=True), flush=True)
                    received += 1
            except KeyboardInterrupt:
                print("\nstopping", file=sys.stderr)
            finally:
                try:
                    subscription.close()
                except (ConnectionError, OSError):
                    pass  # server went away mid-iteration: nothing to undo
        finally:
            client.close()
    print(f"{received} notification(s)", file=sys.stderr)
    return 0


def _cmd_shard(args) -> int:
    from .io import open_database
    from .serving import ShardedEngine

    with obs.span("cli.shard"):
        db = open_database(args.database)
        engine = ShardedEngine.from_database(db, args.shards)
        engine.save(args.output)
    print(
        f"sharded {args.database} ({len(engine)} live series) into "
        f"{args.shards} round-robin shard(s) under {args.output}"
    )
    return 0


def _cmd_stats(args) -> int:
    if args.report:
        report = obs.RunReport.load(args.report)
        meta = ", ".join(f"{k}={v}" for k, v in sorted(report.meta.items()))
        print_table(f"run report {args.report} ({meta})", report.summary_rows())
        if report.spans:
            print("\nspan tree (wall seconds, CPU seconds, calls):")
            _print_spans(report.spans, indent=1)
        return 0
    rows = [
        {"metric": name, "kind": kind, "description": description}
        for name, (kind, description) in sorted(obs.CATALOG.items())
    ]
    print_table("canonical metric catalogue (repro.obs)", rows)
    return 0


def _print_spans(spans, indent: int) -> None:
    for node in spans:
        print(
            f"{'  ' * indent}{node['name']:<28} wall={node['wall_s']:.4f}s "
            f"cpu={node['cpu_s']:.4f}s calls={node['calls']}"
        )
        _print_spans(node.get("children", ()), indent + 1)


def _print_cells(cells) -> None:
    """One table per workload family; cells carry heterogeneous metrics."""
    by_workload: dict = {}
    for cell in cells:
        by_workload.setdefault(cell["workload"], []).append(cell)
    for workload, rows in sorted(by_workload.items()):
        table_rows = [
            {
                "scale": c["scale"],
                "method": c["method"],
                "M": c["coefficients"],
                "index": c["index_kind"],
                "engine": c["engine"],
                "repeats": c["repeats"],
                **c["metrics"],
            }
            for c in rows
        ]
        print_table(f"{workload} cells (median over repeats)", table_rows)


def _cmd_experiment_run(args) -> int:
    from . import experiments as exp

    if not args.spec:
        raise SystemExit("repro experiment run needs a spec file (.toml or .json)")
    spec = exp.load_spec(args.spec)
    summary = exp.run_experiment(
        spec, args.store, bench_dir=args.bench_dir, progress=print
    )
    _print_cells(summary.cells)
    print(
        f"\nrecorded experiment {summary.experiment_id} "
        f"({summary.n_trials} trials, {summary.n_skipped} skipped, "
        f"{summary.n_failed} failed) into {summary.store_path}"
    )
    return 1 if summary.n_failed else 0


def _cmd_experiment_report(args) -> int:
    from . import experiments as exp

    with exp.ResultsStore(args.store) as store:
        overview = exp.experiment_rows(store)
        if not overview:
            raise SystemExit(f"no experiments recorded in {args.store}")
        print_table(f"experiments in {args.store}", overview)
        trend = exp.trend_rows(store, metric=args.metric, workload=args.workload)
        print_table("per-cell metric trend (median over repeats)", trend)
    return 0


def _cmd_experiment_diff(args) -> int:
    from . import experiments as exp

    if not args.spec:
        raise SystemExit("repro experiment diff needs the spec file (for its gates)")
    if not args.baseline:
        raise SystemExit("repro experiment diff needs --baseline BENCH_<spec>.json")
    spec = exp.load_spec(args.spec)
    baseline = exp.load_bench(args.baseline)
    if args.current:
        current_cells = exp.load_bench(args.current)["cells"]
        current_label = args.current
    else:
        with exp.ResultsStore(args.store) as store:
            experiment = store.latest_experiment(spec.name)
            if experiment is None:
                raise SystemExit(
                    f"no {spec.name!r} experiment in {args.store}; run the spec first"
                )
            current_cells = exp.summarise_cells(
                spec, store.cell_metrics(experiment["id"])
            )
            current_label = f"{args.store} (experiment {experiment['id']})"
    rows = exp.diff_cells(spec, baseline["cells"], current_cells)
    print_table(
        f"gates: {current_label} vs baseline {args.baseline}",
        rows or [{"cell": "-", "metric": "-", "verdict": "no gated metrics"}],
    )
    violations = exp.evaluate_gates(spec, baseline["cells"], current_cells)
    if violations:
        print(f"\n{len(violations)} gate violation(s):")
        for violation in violations:
            print(f"  {violation.describe()}")
        return 1
    print("\nall gates pass")
    return 0


def _cmd_experiment(args) -> int:
    if args.which == "run":
        return _cmd_experiment_run(args)
    if args.which == "report":
        return _cmd_experiment_report(args)
    return _cmd_experiment_diff(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SAPLA (EDBT 2022) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the synthetic archive")
    p.add_argument("--family", help="filter by shape family")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("generate", help="materialise one dataset to .npz")
    p.add_argument("--dataset", required=True)
    p.add_argument("--length", type=int, default=1024)
    p.add_argument("--series", type=int, default=100)
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("reduce", help="reduce a series file to JSON")
    p.add_argument("--method", choices=sorted(REDUCERS), default="SAPLA")
    p.add_argument("--coefficients", type=int, default=12)
    p.add_argument("--input", required=True, help=".npy/.csv/.txt series file")
    p.add_argument("--output", required=True, help="representation JSON path")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("reconstruct", help="rebuild a series from JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("knn", help="k-NN search over a dataset")
    p.add_argument("--dataset", required=True, help="archive name or .npz path")
    p.add_argument("--method", choices=sorted(REDUCERS), default="SAPLA")
    p.add_argument("--coefficients", type=int, default=12)
    p.add_argument("--index", choices=("rtree", "dbch", "none"), default="dbch")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--length", type=int, default=256)
    p.add_argument("--series", type=int, default=50)
    p.add_argument(
        "--batch", action="store_true",
        help="answer all queries in one QueryEngine.knn_batch call",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the --batch call; late queries return partial results",
    )
    p.add_argument(
        "--report", default=None, metavar="OUT.json",
        help="capture metrics + spans for the run and write a RunReport here",
    )
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("ingest", help="insert series into a saved database (WAL-durable)")
    p.add_argument("--database", required=True, help="database directory (from save)")
    p.add_argument("--input", required=True, help=".npz dataset or .npy/.csv/.txt series")
    p.add_argument(
        "--fsync", choices=("always", "batch", "never"), default="batch",
        help="WAL fsync policy for the inserts",
    )
    p.add_argument(
        "--fsync-batch", type=int, default=64, metavar="N",
        help="records per fsync under --fsync batch",
    )
    p.add_argument(
        "--no-wal", action="store_true",
        help="skip the write-ahead log (crash loses uncheckpointed inserts)",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("checkpoint", help="fold a database's WAL into its saved state")
    p.add_argument("--database", required=True, help="database directory (from save)")
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser("compact", help="drop tombstoned rows and reclaim space")
    p.add_argument("--database", required=True, help="database directory (from save)")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("shard", help="partition a saved database into a sharded home")
    p.add_argument("--database", required=True, help="source database directory (from save)")
    p.add_argument("--output", required=True, help="sharded home directory to create")
    p.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="round-robin shard count (series id modulo N)",
    )
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser("serve", help="serve k-NN/range queries over TCP")
    p.add_argument(
        "--database", required=True,
        help="database directory or sharded home (from 'repro shard')",
    )
    p.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition a plain database into N in-memory shards at startup",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument(
        "--max-in-flight", type=int, default=64, metavar="N",
        help="queries executing concurrently on the thread pool",
    )
    p.add_argument(
        "--queue-depth", type=int, default=2048, metavar="N",
        help="admitted queries allowed to wait; beyond this arrivals are shed",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="execution threads (defaults to --max-in-flight)",
    )
    p.add_argument(
        "--report", default=None, metavar="OUT.json",
        help="write a RunReport (server.* / shard.* metrics) on shutdown",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "subscribe",
        help="register a standing query and print pushed notifications",
    )
    p.add_argument(
        "--database", required=True,
        help="tcp://host:port of a running server, a database directory, "
        "or a sharded home",
    )
    p.add_argument(
        "--kind", choices=("knn", "range"), default="knn",
        help="standing-query kind to register",
    )
    p.add_argument(
        "--query", default=None, metavar="FILE",
        help=".npy/.csv/.txt series for --kind knn/range",
    )
    p.add_argument("--k", type=int, default=8, help="top-k size for --kind knn")
    p.add_argument(
        "--radius", type=float, default=None,
        help="match radius for --kind range",
    )
    p.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="stop after N notifications (0 = run until timeout/Ctrl-C)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="stop when no notification arrives for this long",
    )
    p.set_defaults(func=_cmd_subscribe)

    p = sub.add_parser("stats", help="metric catalogue / run-report summary")
    p.add_argument(
        "--report", default=None, metavar="RUN.json",
        help="summarise this RunReport instead of listing the catalogue",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "experiment",
        help="drive the experiment service (run <spec> / report / diff)",
    )
    p.add_argument("which", choices=("run", "report", "diff"))
    p.add_argument(
        "spec", nargs="?", default=None,
        help="experiment spec file (.toml/.json) for the run/diff subcommands",
    )
    p.add_argument(
        "--store", default="experiments.sqlite", metavar="DB",
        help="sqlite results store for run/report/diff",
    )
    p.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="where 'run' writes its BENCH_<spec>.json trajectory summary",
    )
    p.add_argument(
        "--baseline", default=None, metavar="BENCH.json",
        help="baseline trajectory file 'diff' compares against",
    )
    p.add_argument(
        "--current", default=None, metavar="BENCH.json",
        help="trajectory file to judge; defaults to the store's latest run of the spec",
    )
    p.add_argument(
        "--metric", default=None,
        help="substring filter on metric names in 'report' trend tables",
    )
    p.add_argument(
        "--workload", default=None,
        help="workload-family filter in 'report' trend tables",
    )
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """Parse arguments and dispatch to the selected command."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
