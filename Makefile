# Convenience targets for the SAPLA reproduction.

.PHONY: install test bench bench-full examples results clean verify verify-obs verify-engine \
	verify-lifecycle verify-experiments verify-cascade verify-serving verify-continuous \
	verify-reduction verify-perf crash-matrix baseline

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# observability layer: marker-selected tests + the metric-name lint
verify-obs:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/ -m obs -q

# batched query engine: its tests + a small-N batch-knn smoke benchmark
verify-engine:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/engine -q
	PYTHONPATH=src REPRO_SERIES=64 REPRO_QUERIES=16 REPRO_LENGTH=64 \
	pytest benchmarks/bench_batch_knn.py --benchmark-only -q

# durability layer: lint + WAL/recovery/maintenance/snapshot tests +
# the mutate-vs-fresh equivalence property + the committed home corpus +
# a short crash matrix
verify-lifecycle:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/lifecycle tests/property/test_mutate_query_equivalence.py tests/io/test_homes.py -q
	python scripts/crash_matrix.py --kills 3 --series 300

# SIGKILL an ingesting subprocess at random points; recovery must lose nothing
crash-matrix:
	python scripts/crash_matrix.py

# experiment service: lint + the reachability check + its tests (a committed
# BENCH_*.json whose spec no longer parses fails them) + a tiny end-to-end
# matrix — run the smoke spec, render its report, then diff it against the
# BENCH it just wrote (must pass its own gates and exit 0)
verify-experiments:
	python scripts/check_metric_names.py
	python scripts/check_reachable.py
	PYTHONPATH=src pytest tests/experiments -q
	rm -f /tmp/repro-verify-experiments.sqlite /tmp/BENCH_smoke.json
	PYTHONPATH=src python -m repro experiment run benchmarks/specs/smoke.toml \
		--store /tmp/repro-verify-experiments.sqlite --bench-dir /tmp
	PYTHONPATH=src python -m repro experiment report \
		--store /tmp/repro-verify-experiments.sqlite
	PYTHONPATH=src python -m repro experiment diff benchmarks/specs/smoke.toml \
		--store /tmp/repro-verify-experiments.sqlite --baseline /tmp/BENCH_smoke.json

# bound cascade + mapped page-file rows: lint + the dominance, mapped-row,
# bit-identity equivalence and golden-counter tests, then the medium spec
# against the committed baseline (the >= 25% batch-knn gate lives there)
verify-cascade:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/distance/test_cascade.py tests/storage/test_columns.py \
		tests/engine/test_equivalence.py tests/engine/test_golden_counters.py -q
	rm -f /tmp/repro-verify-cascade.sqlite /tmp/BENCH_medium.json
	PYTHONPATH=src python -m repro experiment run benchmarks/specs/medium.toml \
		--store /tmp/repro-verify-cascade.sqlite --bench-dir /tmp
	PYTHONPATH=src python -m repro experiment diff benchmarks/specs/medium.toml \
		--store /tmp/repro-verify-cascade.sqlite --baseline BENCH_medium.json

# sharded serving layer + client facade: lint + the sharding/server/client
# tests, then the loopback load test (>= 1000 concurrent in-flight queries,
# answers bit-identical to the unsharded engine) with its latency report
# rendered through repro stats
verify-serving:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/serving tests/client -q
	PYTHONPATH=src python scripts/serve_loadtest.py --report /tmp/repro-serve-loadtest.json
	PYTHONPATH=src python -m repro stats --report /tmp/repro-serve-loadtest.json

# continuous-query subsystem: lint + its tests (and the record-file tests
# its subscription log shares with the WAL), then the subscription load
# test (>= 100 standing subscriptions over streaming ingest, pushed
# frontiers bit-identical to scratch re-runs) whose insert-to-notify
# latency report is rendered through repro stats
verify-continuous:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/continuous tests/lifecycle/test_recordfile.py -q
	PYTHONPATH=src python scripts/continuous_loadtest.py \
		--report /tmp/repro-continuous-loadtest.report.json
	PYTHONPATH=src python -m repro stats \
		--report /tmp/repro-continuous-loadtest.report.json

# batched write side: lint + the transform_batch bit-identity grid (with the
# lock-step SAPLA kernel's perf-shaped 516 x 256 case) and the core
# kernel tests, then the batch-vs-scalar micro-benchmark, which fails on
# any row that differs (SAPLA at 1024 rows)
verify-reduction:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/reduction tests/core -q
	PYTHONPATH=src python benchmarks/bench_reduction_batch.py \
		--report /tmp/repro-reduction-batch.report.json

# the repository benchmark (perf/, BENCHMARK.json): all four workloads at
# smoke scale with every answer checked, then the benchmark's own tests —
# an API change that breaks what perf/ drives fails here, not at the driver
verify-perf:
	python3 perf/run.py --smoke
	python -m pytest perf/tests -q

# the default verify chain: every subsystem gate in sequence
verify: verify-obs verify-engine verify-lifecycle verify-experiments \
	verify-cascade verify-serving verify-continuous verify-reduction verify-perf

# regenerate the committed perf baseline: BENCH_medium.json at the repo root
baseline:
	PYTHONPATH=src python -m repro experiment run benchmarks/specs/medium.toml \
		--store benchmarks/results/experiments.sqlite --bench-dir .

bench:
	pytest benchmarks/ --benchmark-only

# the paper's full grid (hours in pure Python; see DESIGN.md)
bench-full:
	REPRO_LENGTH=1024 REPRO_SERIES=100 REPRO_QUERIES=5 REPRO_DATASETS=all \
	REPRO_COEFFICIENTS=12,18,24 REPRO_KS=4,8,16,32,64 \
	pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

results:
	python -m repro experiment all --output results

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
