# Development entry points.  `make check` is the tier-1 gate:
# the full test suite (which includes the analyzer self-checks under the
# `analysis` pytest marker) plus the analyzer run against its baseline.

PY := python
export PYTHONPATH := src

.PHONY: lint analyze check-analysis test check check-robustness check-obs check-perf check-pipeline check-serve check-slo check-backends baseline bench-e2e fuzz

lint: analyze

analyze:
	$(PY) -m repro analyze

# Dataflow gate: the abstract-interpretation analyses (SGL011-SGL014),
# the static-vs-dynamic effect coverage check, the backend-surface
# staleness gate (docs/backend_surface.md must match the code and show
# zero kernel-reachable calls outside the repro.xp contract), and the
# analysis-marked test suite (dataflow + races + rules + baseline).
check-analysis:
	$(PY) -m repro analyze --dataflow
	$(PY) -m repro analyze --check-surface
	$(PY) -m pytest -q -m analysis

# Refresh the accepted-findings baseline after reviewing new findings.
# Runs with the dataflow analyses on (the committed baseline covers
# SGL011-SGL014 too); stale entries are pruned and reported.
baseline:
	$(PY) -m repro analyze --dataflow --update-baseline

test:
	$(PY) -m pytest -x -q

check: test check-analysis check-backends check-pipeline check-slo check-robustness check-obs check-perf

# Backend gate: the repro.xp registry and cross-backend parity suite
# (numpy vs. instrumented must agree bitwise on matches, stats, and
# resume tokens) plus the SGL014 backend-surface gate.
check-backends:
	$(PY) -m pytest -q -m xp
	$(PY) -m repro analyze --check-surface

# Pipeline gate: cross-driver parity + session-reuse tests, plus the
# session-amortization benchmark compared against the committed baseline
# (warm match() must stay >= 2x faster than cold).
check-pipeline:
	$(PY) -m pytest -q -m pipeline
	$(PY) benchmarks/bench_session.py --against BENCH_pipeline.json

# Fault-tolerance gate: the robustness test suite plus the seeded
# fault-injection smoke (a faulted run must equal the fault-free run).
check-robustness:
	$(PY) -m pytest -q -m robustness
	$(PY) -m repro resilient-run --smoke

# Observability gate: trace/metrics/profile tests plus a profile run of
# the smoke workload compared against the committed baseline.
check-obs:
	$(PY) -m pytest -q -m obs
	$(PY) -m repro profile --n-queries 40 --n-molecules 200 --against BENCH_obs.json

# SLO gate: the SLO-engine/flight-recorder/monitor test suite plus the
# always-on monitor's goodput overhead measured against the committed
# obs_overhead block of BENCH_obs.json (<= 5% vs. monitor-off).
check-slo:
	$(PY) -m pytest -q -m slo
	$(PY) benchmarks/bench_obs_overhead.py --against BENCH_obs.json

# Serving gate: the matching-service test suite (admission, breakers,
# pool, chaos), the deterministic chaos scenarios via the CLI (exits
# nonzero on any contract violation), and the pooled-vs-naive serving
# benchmark against the committed baseline (1.5x goodput floor).
check-serve:
	$(PY) -m pytest -q -m serve
	$(PY) -m repro serve-sim --chaos
	$(PY) benchmarks/bench_serve.py --against BENCH_serve.json

# Accelerator gate: join-backend/cache/shared-memory tests plus the
# hot-path benchmark compared against the committed baseline (backend
# parity + the 2x join-stage speedup floor).
check-perf:
	$(PY) -m pytest -q -m perf_accel
	$(PY) benchmarks/bench_hotpath.py --against BENCH_perf.json

# End-to-end benchmark self-tests (about a minute): harness, layer
# accounting, comparison gate and answer checks of benchmarks/e2e.
bench-e2e:
	$(PY) -m pytest benchmarks/e2e -q

# Differential fuzzing (long local mode, not part of `make check`): the
# join, driver, filter-depth and refine-kernel differential suites over
# seeds 0..FUZZ_SEEDS-1 instead of their fixed tier-1/CI seeds.  `make fuzz FUZZ_SEEDS=400` widens it.
FUZZ_SEEDS ?= 100
fuzz:
	REPRO_FUZZ_SEEDS=$(FUZZ_SEEDS) $(PY) -m pytest -q \
		tests/integration/test_join_differential.py \
		tests/integration/test_driver_differential.py \
		tests/integration/test_depth_differential.py \
		tests/core/test_filtering.py::TestRefineDifferential
