# Development entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src), so no editable install is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-workers bench bench-json bench-smoke bench-parallel \
        bench-store docs-check golden-check check

## Tier-1 test suite (must stay green).
test:
	$(PYTHON) -m pytest -x -q tests

## Tier-1 suite with every sweep fanned out over a 2-process worker pool
## (results are byte-identical by contract; this leg proves it end to end).
test-workers:
	REPRO_SWEEP_WORKERS=2 $(PYTHON) -m pytest -x -q tests

## Reproduce the paper's tables/figures and the sweep-speed benchmarks.
## Writes machine-readable per-grid results to BENCH_sweep.json in the
## repo root (locally and in CI alike).
bench:
	$(PYTHON) -m pytest -q benchmarks -s

## Alias: regenerate BENCH_sweep.json from just the sweep-speed gates
## (smoke + parallel) without the full table/figure benchmarks.
bench-json: bench-smoke bench-parallel

## Quick benchmark smoke: the vectorised-vs-reference sweep speed gates
## (Fig. 3, Fig. 9b, and the warm/thrashing segmented-LRU kernel gate) —
## fast enough to run on every push.  The heavier parallel-vs-serial gate
## lives in bench-parallel (and in full `make bench`).
bench-smoke:
	$(PYTHON) -m pytest -q -s -k "not parallel" \
	    benchmarks/test_sweep_speed.py \
	    benchmarks/test_distributed_sweep_speed.py

## Parallel-vs-serial sweep gate: a 16-point grid through workers=4 must be
## byte-identical to the serial run, and >=2x faster on a >=4-core machine.
bench-parallel:
	$(PYTHON) -m pytest -q -s -k "parallel" benchmarks/test_sweep_speed.py

## Verify every public __all__ symbol (repro, repro.sim, repro.coordl,
## repro.cache, repro.store) is documented in docs/API.md.
docs-check:
	$(PYTHON) tools/docs_check.py

## Backend micro-benchmark: a 1000-entry warm read+stats workload where the
## SQLite backend must beat the JSON directory by
## $$REPRO_BENCH_MIN_SQLITE_SPEEDUP (default 3x); results merge into
## BENCH_sweep.json.
bench-store:
	$(PYTHON) -m pytest -q -s benchmarks/test_store_backends.py

## Golden-replay gate: every committed golden grid, cold then warm, through
## one matrix of cells -- JSON and SQLite stores; serial, supervised-pool
## and multi-host executors; no fault plan, the committed
## tools/fault_plans/ci.json or a host kill; direct runs and HTTP through
## an in-process serve daemon.  Every cell must reproduce tests/golden byte
## for byte, hit the store on every warm point, keep the store's write-once
## trace valid, deliver its planned faults and leak no thread or process.
## Per-cell timings and counters land in BENCH_golden.json (repo root).
golden-check:
	$(PYTHON) tools/golden_check.py

## Everything the CI gate's main leg runs (the parallel-workers and store
## legs add `make test-workers bench-smoke bench-parallel` under
## REPRO_SWEEP_WORKERS=2 and `make bench-store test` under
## REPRO_SWEEP_STORE respectively).
check: test docs-check bench-smoke golden-check
