# Convenience targets for the RCoal reproduction.

.PHONY: install test test-fast bench bench-paper experiments trace \
        profile metrics perf serve attribute check-metrics \
        status chaos fuzz clean

install:
	pip install -e '.[test]'

test:
	pytest tests/

test-fast:
	REPRO_FAST=1 pytest tests/

# Regenerate every paper table/figure + ablations (balanced profile).
bench:
	pytest benchmarks/ --benchmark-only

# The paper's full 100-sample protocol (slow).
bench-paper:
	REPRO_PAPER=1 pytest benchmarks/ --benchmark-only

# Print every experiment via the CLI (reduced samples).
experiments:
	REPRO_FAST=1 rcoal all

# Export a Chrome trace of a baseline run (open in chrome://tracing
# or https://ui.perfetto.dev); see docs/observability.md.
trace:
	REPRO_FAST=1 rcoal trace fig05 --out trace.json

# Deterministic cost-center profile (simulated cycles split across
# engine stages + wall-clock span table); see docs/observability.md.
profile:
	REPRO_FAST=1 rcoal profile fig05

# Print the telemetry metrics snapshot for a baseline run.
metrics:
	REPRO_FAST=1 rcoal metrics fig05

# The benchmark: four figure-shaped workloads in fresh processes, seed
# 2018, three rounds (about 3 min); see bench/README.md.
perf:
	python3 bench/run.py

# Live telemetry dashboard (progress, metrics, trace tail) on
# http://127.0.0.1:8000 while fig07 runs; Ctrl-C to exit.
serve:
	REPRO_FAST=1 rcoal serve fig07 -j 2

# Per-warp leakage attribution of the attacked round window;
# see docs/attacks.md#leakage-attribution.
attribute:
	REPRO_FAST=1 rcoal attribute

# Gate the metrics snapshot and the cost-center profile against their
# committed baselines (what CI runs).
check-metrics:
	rcoal metrics fig05 --samples 4 --check BASELINE_METRICS.json
	rcoal metrics fig07 --samples 4 --check BASELINE_METRICS.json
	rcoal metrics fig13 --samples 4 --check BASELINE_METRICS.json
	REPRO_FAST=1 rcoal profile fig05 --samples 4 --check BASELINE_PROFILE.json

# Campaign progress from the run ledger + checkpoint store; pass the
# campaign directory as DIR (default ckpt). See
# docs/observability.md#campaign-observability-rcoal-status.
status:
	rcoal status $(or $(DIR),ckpt)

# Fault-injection suite: supervision, checkpoint/resume, crash-safe
# writes; see docs/robustness.md.
chaos:
	REPRO_FAST=1 pytest tests/robustness/

# Long differential fuzzing: the fast engines against the event engine
# (generated machines with AES launches and sample slabs, machines built
# for row misses and ties with AES slabs, and tiny machines with raw warp
# streams; every multi-warp launch the recurrence replay serves is also
# checked against the calendar replay), the recurrence replay on raw
# streams of 2 to 32 warps on small machines, the attack estimator
# against its reference, and the array
# draws and distinct-pair counts against their per-draw and set-based
# references, at 1000 examples each on a fresh random seed (the `fuzz`
# Hypothesis profile, registered in tests/conftest.py). A plain
# `make test` keeps the derandomized tier-1 settings. CI's `fuzz` job
# runs this target.
fuzz:
	pytest tests/gpu/test_differential.py \
	    tests/gpu/test_recurrence_replay.py::test_raw_multi_warp_launches_equal_the_calendar \
	    tests/attack/test_estimator.py::test_access_matrix_matches_the_reference \
	    tests/test_array_exactness.py::test_draw_sids_equals_one_draw_at_a_time \
	    tests/test_array_exactness.py::test_partitions_are_the_drawn_rows \
	    tests/test_array_exactness.py::test_bulk_integers_equal_one_call_per_row \
	    tests/test_array_exactness.py::test_access_counts_equal_a_set_reference \
	    tests/test_array_exactness.py::test_counts_slab_keys_equal_a_set_reference \
	    --hypothesis-profile=fuzz

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	find . -name '*.pyc' -delete
