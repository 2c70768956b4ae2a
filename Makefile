# Convenience targets for the reproduction repository.

.PHONY: install test lint analyze analyze-fast bench bench-smoke perfbench-smoke bench-kernels bench-kernels-check bench-prepared bench-prepared-check bench-service bench-service-check bench-allen bench-allen-check bench-planner bench-planner-check examples figures clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Style lint (ruff). A missing ruff is an error, not a silent skip —
# set REPRO_LINT_OPTIONAL=1 to opt out (e.g. minimal local setups).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif [ -n "$$REPRO_LINT_OPTIONAL" ]; then \
		echo "ruff not installed; skipping lint (REPRO_LINT_OPTIONAL set)"; \
	else \
		echo "error: ruff is not installed. Run 'pip install -e .[dev]'" \
		     "or set REPRO_LINT_OPTIONAL=1 to skip." >&2; \
		exit 1; \
	fi

# Domain lint + static analysis (repro-lint): node rules plus the flow/
# interprocedural set. Incremental via .repro-lint-cache/ — a warm run
# over an unchanged tree re-parses 0 files. No artifact is written into
# the source tree; CI generates the SARIF report explicitly.
analyze:
	PYTHONPATH=src python -m repro.analysis src

# Warm developer loop: refuses a cold cache so it never silently pays
# the full-parse cost ('make analyze' first seeds the cache).
analyze-fast:
	@test -f .repro-lint-cache/files.json || { \
		echo "analyze-fast: cold cache — run 'make analyze' once first" >&2; \
		exit 1; \
	}
	PYTHONPATH=src python -m repro.analysis src

bench:
	pytest benchmarks/ --benchmark-only

# Small serial-vs-2-worker timing snapshot; accumulates the perf
# trajectory of the parallel engine as BENCH_parallel.json per commit.
bench-smoke:
	PYTHONPATH=src python -m repro.bench.smoke --out BENCH_parallel.json

# The end-to-end benchmark (perfbench/) as a correctness run: every
# workload, untraced and traced. Each operation is checked against an
# independent reference route, and the traced run also rebuilds every
# route layer by layer; any mismatch or exception exits non-zero.
PERFBENCH_WORKLOADS = fig8-mix fig9-fleet fig9-stream sharded

perfbench-smoke:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		for trace in 0 1; do \
			echo "perfbench: $$workload --trace $$trace"; \
			python3 perfbench/run.py --workload $$workload --seed 1 \
				--seconds 3 --trace $$trace > /dev/null || exit 1; \
		done; \
	done

# Object-vs-kernel engine speedups per workload family and size;
# refreshes the committed BENCH_kernels.json baseline.
bench-kernels:
	PYTHONPATH=src python -m repro.bench.kernels --out BENCH_kernels.json

# Regression gate against the committed baseline: re-measures the smoke
# size and fails if the kernel speedup ratio regressed >15%.
bench-kernels-check:
	PYTHONPATH=src python -m repro.bench.kernels --check \
		--baseline BENCH_kernels.json --out BENCH_kernels_check.json

# Cold-fleet vs prepared-batch amortization over the 10-template
# standing-query fleet; refreshes the committed BENCH_prepared.json.
bench-prepared:
	PYTHONPATH=src python -m repro.bench.prepared --out BENCH_prepared.json

# Regression gate against the committed baseline: re-measures the smoke
# size and fails if the amortized speedup regressed >15% (or fell
# below break-even, or the batch re-sorted the event stream).
bench-prepared-check:
	PYTHONPATH=src python -m repro.bench.prepared --check \
		--baseline BENCH_prepared.json --out BENCH_prepared_check.json

# Standing-query service over the Figure-9 workloads (TPC-E star τ=170,
# LDBC line τ=11): one shared ingest pass feeding a 3-query fleet;
# refreshes the committed BENCH_service.json.
bench-service:
	PYTHONPATH=src python -m repro.bench.service --out BENCH_service.json

# Smoke gate: re-measures the smoke size and fails if any standing
# query's snapshot differs from the offline temporal_join, if the fleet
# consumed more than one ingest pass, or if template dedup broke.
bench-service-check:
	PYTHONPATH=src python -m repro.bench.service --check \
		--baseline BENCH_service.json --out BENCH_service_check.json

# Lazy-sweep vs forward-scan (overlaps) and vs the naive predicate
# scan (Allen atoms); refreshes the committed BENCH_allen.json.
bench-allen:
	PYTHONPATH=src python -m repro.bench.allen --out BENCH_allen.json

# Regression gate against the committed baseline: re-measures the
# check cells and fails if a speedup ratio regressed >15% or the
# implementations disagreed on results.
bench-allen-check:
	PYTHONPATH=src python -m repro.bench.allen --check \
		--baseline BENCH_allen.json --out BENCH_allen_check.json

# Cold exact decomposition search vs warm persistent plan cache over
# the Table 1 fleet; refreshes the committed BENCH_planner.json.
bench-planner:
	PYTHONPATH=src python -m repro.bench.planner --out BENCH_planner.json

# Regression gate against the committed baseline: fails if the warm
# arm did any search work, missed the cache, fell below the 2x
# amortization floor, or regressed >15% vs the baseline ratio.
bench-planner-check:
	PYTHONPATH=src python -m repro.bench.planner --check \
		--baseline BENCH_planner.json --out BENCH_planner_check.json

figures: bench
	@cat benchmarks/results/*.txt

examples:
	@for f in examples/*.py; do echo "=== $$f"; python $$f; done

clean:
	rm -rf benchmarks/results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
