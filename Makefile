# Convenience targets for the SAPLA reproduction.

.PHONY: install test paper examples clean verify verify-obs verify-engine \
	verify-lifecycle verify-experiments verify-cascade verify-serving verify-continuous \
	verify-reduction verify-perf crash-matrix baseline

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# run benchmarks/specs/$(1).toml into a scratch store, then diff it against
# the committed BENCH_$(1).json: exits non-zero on any violated gate
define run-spec
	rm -f /tmp/repro-verify-$(1).sqlite /tmp/BENCH_$(1).json
	PYTHONPATH=src python -m repro experiment run benchmarks/specs/$(1).toml \
		--store /tmp/repro-verify-$(1).sqlite --bench-dir /tmp
	PYTHONPATH=src python -m repro experiment diff benchmarks/specs/$(1).toml \
		--store /tmp/repro-verify-$(1).sqlite --baseline BENCH_$(1).json
endef

# observability layer: marker-selected tests + the metric-name lint
verify-obs:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/ -m obs -q

# batched query engine: its tests, then the batch_knn spec (a batch of 64 on
# the PAA scan and the SAPLA-12 DBCH-tree; batched answers bit-identical to
# the sequential loop, speedup >= 3x on the scan)
verify-engine:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/engine -q
	$(call run-spec,batch_knn)

# durability layer: lint + WAL/recovery/maintenance/snapshot tests +
# the mutate-vs-fresh equivalence property + the committed home corpus +
# a short crash matrix, then the ingest spec (every fsync policy; a WAL
# that logs more or less than it did fails)
verify-lifecycle:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/lifecycle tests/property/test_mutate_query_equivalence.py tests/io/test_homes.py -q
	python scripts/crash_matrix.py --kills 3 --series 300
	$(call run-spec,ingest)

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
	$(call run-spec,medium)

# sharded serving layer + client facade: lint + the sharding/server/client
# tests, then the serving spec (1,200 pipelined queries over 4 shards:
# >= 1000 concurrent in-flight, answers bit-identical to the unsharded engine)
verify-serving:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/serving tests/client -q
	$(call run-spec,serving)

# continuous-query subsystem: lint + its tests (and the record-file tests
# its subscription log shares with the WAL), then the continuous spec
# (>= 100 live k-NN and range subscriptions over streamed inserts and
# deletes, both phases pushing deltas, final frontiers bit-identical to
# scratch re-runs)
verify-continuous:
	python scripts/check_metric_names.py
	PYTHONPATH=src pytest tests/continuous tests/lifecycle/test_recordfile.py -q
	$(call run-spec,continuous)

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

# regenerate the committed baselines: every BENCH_<spec>.json at the repo root
# (then recompute serving.toml's inflight_peak and batch_knn.toml's speedup
# limits from the new files; tests/experiments/test_committed_gates.py checks)
baseline:
	for spec in medium batch_knn ingest serving continuous paper; do \
		PYTHONPATH=src python -m repro experiment run benchmarks/specs/$$spec.toml \
			--store benchmarks/results/experiments.sqlite --bench-dir . || exit 1; \
	done

# the paper's tables and figures (Table 1, Figs. 12-16, the ablations; about
# ten minutes): run benchmarks/specs/paper.toml and diff it against the
# committed BENCH_paper.json that EXPERIMENTS.md is read from
paper:
	$(call run-spec,paper)

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
