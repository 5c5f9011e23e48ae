# Development gates.  `make lint` is the static-verification gate CI runs:
# ruff + mypy over src/repro (skipped with a notice when the tools are not
# installed, e.g. in offline containers) followed by the schedule linter
# over every registered ordering.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-batch test-sanitized lint lint-tools lint-schedules analyze bench bench-check bench-figures tune faults

test:
	$(PYTHON) -m pytest -x -q

# the batch-API contract: svd_batch bit-identical to a loop of svd()
# across kernels x orderings x executors, plus the hypothesis batch
# properties (order-invariance, determinism, per-item error reporting)
test-batch:
	$(PYTHON) -m pytest -x -q tests/test_batch_api.py tests/test_batch_property.py

# the whole suite with the runtime sanitizer armed: every block run
# cross-checks its write records and numeric canaries; zero SAN
# diagnostics is part of the contract
test-sanitized:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

lint: lint-tools lint-schedules

lint-tools:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# the uniform static gate: every registered ordering, n in {8, 16, 32},
# races / coverage / direction / restoration; plus capacity+deadlock on
# the topologies the paper proves its orderings clean on
lint-schedules:
	$(PYTHON) -m repro.cli lint
	$(PYTHON) -m repro.cli lint --ordering fat_tree --ordering hybrid --topology perfect
	$(PYTHON) -m repro.cli lint --ordering hybrid --topology cm5
	$(PYTHON) -m repro.cli lint --ordering ring_new --ordering ring_modified --topology binary

# the execution-layer gate, one level below lint-schedules: compiled
# plans re-elaborated against their source schedules, executor
# chunkings proved race-free and merge-deterministic for every kernel x
# worker count, single-leaf degradation proved total
analyze:
	$(PYTHON) -m repro.cli analyze
	$(PYTHON) -m repro.cli analyze --topology none --workers 3

# the perf-regression harness: timed scenarios (reference vs batched
# scalar kernels, gram vs reference block kernels, parallel simulator at
# scalar and block granularity, lint latency) -> BENCH_local.json;
# compare a later run with `repro-harness bench --compare BENCH_local.json`
bench:
	$(PYTHON) -m repro.cli bench --tag local

# the regression gate over the checked-in report: re-times every scenario
# (including the block-gram-vs-reference pair) and fails on any shared
# scenario slowing down beyond the tolerance (generous, because the
# committed report may come from different hardware)
bench-check:
	$(PYTHON) -m repro.cli bench --tag check --repeats 3 \
		--compare BENCH_local.json --max-slowdown 400

# the autotuner: race kernel/ordering/block-size/executor
# candidates with successive halving and persist the winner to
# PROFILE_<host>.json; `svd(..., profile=...)` or REPRO_PROFILE then
# fill any options the caller left unset
tune:
	$(PYTHON) -m repro.cli tune --m 144 --n 128
	$(PYTHON) -m repro.cli tune --m 272 --n 256 --quick

# timed replays of the paper's figures/tables via pytest-benchmark
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# the chaos gate: the registered single-fault campaign (fault kinds x
# orderings, survival matrix, exit 1 on any casualty) plus the seeded
# property-based chaos suite
faults:
	$(PYTHON) -m repro.cli faults --quick
	$(PYTHON) -m pytest -x -q tests/test_faults_property.py \
		tests/test_faults_recovery.py
