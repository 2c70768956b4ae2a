# Convenience targets for the reproduction repository.

.PHONY: install test lint analyze analyze-fast bench bench-baseline bench-check perfbench-smoke examples figures clean

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

# Ratio-gated benchmarks (src/repro/bench/gates.py): kernel/object,
# prepared/cold, lazy-sweep/classic, warm/cold plan cache, plus the
# serial-vs-sharded record. bench-baseline re-measures every cell and
# rewrites the committed BENCH_gates.json; bench-check re-measures the
# check cells into BENCH_gates_check.json and fails on a broken rule.
bench-baseline:
	PYTHONPATH=src python -m repro.bench.gates

bench-check:
	PYTHONPATH=src python -m repro.bench.gates --check

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

figures: bench
	@cat benchmarks/results/*.txt

examples:
	@for f in examples/*.py; do echo "=== $$f"; PYTHONPATH=src python $$f || exit 1; done

clean:
	rm -rf benchmarks/results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
