# Convenience targets; everything is plain dune underneath.

.PHONY: all build test qcheck-soak bench micro examples doc clean check trace-smoke fault-smoke workload-smoke sweep-smoke stabilize-smoke chord-smoke social-smoke bench-engine trace-bench-smoke smoke perf-ab

all: build

build:
	dune build @all

test:
	dune runtest

# Property tests run from a fixed seed (Testutil.qcheck), so tier-1 is
# deterministic.  This target explores instead: it reruns every property
# under SEEDS fresh random seeds and prints each seed that fails, which
# QCHECK_SEED=<seed> then replays.  The properties live in the alcotest
# groups matched by QCHECK_GROUPS.
SEEDS ?= 20
QCHECK_GROUPS = ^(properties|id|lookup|scenario)$$
qcheck-soak:
	dune build
	@failed=0; \
	for i in $$(seq 1 $(SEEDS)); do \
	  seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	  for t in $$(grep -l Testutil.qcheck test/test_*.ml); do \
	    name=$$(basename $$t .ml); \
	    QCHECK_SEED=$$seed _build/default/test/$$name.exe \
	      test '$(QCHECK_GROUPS)' > /dev/null 2>&1 \
	      || { echo "qcheck-soak: $$name fails with QCHECK_SEED=$$seed"; \
	           failed=1; }; \
	  done; \
	done; \
	if [ $$failed = 0 ]; then echo "qcheck-soak: $(SEEDS) seeds passed"; fi; \
	exit $$failed

bench:
	dune exec bench/main.exe -- all

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/sampling_anatomy.exe
	dune exec examples/churn_survival.exe
	dune exec examples/dos_defense.exe
	dune exec examples/anonymizer_demo.exe
	dune exec examples/dht_pubsub_demo.exe

doc:
	dune build @doc

# Run a small traced experiment and validate the JSONL trace it produces
# (see docs/observability.md for the schema).
trace-smoke:
	dune build bench/main.exe bin/trace_check.exe
	cd /tmp && dune exec --root $(CURDIR) bench/main.exe -- \
	  --trace /tmp/overlay_trace.jsonl e1 > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_trace.jsonl

# Run a traced churn scenario under the fault model (see
# docs/fault_model.md) and validate the trace.  FAULT_DROP is the
# per-message drop rate; at 0 the plan is inert and the run is fault-free.
FAULT_DROP ?= 0.1
fault-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	dune exec bin/overlay_sim.exe -- churn -n 256 --epochs 3 \
	  --faults drop=$(FAULT_DROP),dup=0.01,delay=2,crash=2 --retry 3 \
	  --trace /tmp/overlay_fault_trace.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_fault_trace.jsonl

# Run a traced workload (group-kill DoS + message drops + retries) and
# validate the trace (see docs/workloads.md).  WORKLOAD_DROP is the
# per-attempt message drop rate; at 0 the fault plan is inert and the run
# is byte-identical to a fault-free one.
WORKLOAD_DROP ?= 0.05
workload-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --attack group-kill --frac 0.2 --faults drop=$(WORKLOAD_DROP) --retry 3 \
	  --trace /tmp/overlay_workload_trace.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_trace.jsonl

# Run small sweep grids twice through their checkpoints (once fresh, once
# resumed from a truncated file) and check both artifacts are
# byte-identical and the progress trace validates (see docs/sweeps.md).
# The run=churn grid covers the one runner no cram test runs.
SWEEP_SPEC ?= sweep=smoke;run=sample;axis:n=64|128;var:c=1.5|2
SWEEP_CHURN_SPEC ?= sweep=smoke-churn;run=churn;n=64;rounds=2;axis:seed=1|2;var:leave-frac=0.2|0.3
sweep-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	for spec in '$(SWEEP_SPEC)' '$(SWEEP_CHURN_SPEC)'; do \
	  rm -f /tmp/overlay_sweep.jsonl /tmp/overlay_sweep_cut.jsonl && \
	  dune exec bin/overlay_sim.exe -- sweep --spec "$$spec" \
	    --checkpoint /tmp/overlay_sweep.jsonl \
	    --trace /tmp/overlay_sweep_trace.jsonl > /dev/null && \
	  head -n 2 /tmp/overlay_sweep.jsonl > /tmp/overlay_sweep_cut.jsonl && \
	  printf '{"torn' >> /tmp/overlay_sweep_cut.jsonl && \
	  dune exec bin/overlay_sim.exe -- sweep --spec "$$spec" \
	    --checkpoint /tmp/overlay_sweep_cut.jsonl --domains 4 > /dev/null && \
	  cmp /tmp/overlay_sweep.jsonl /tmp/overlay_sweep_cut.jsonl && \
	  dune exec bin/trace_check.exe -- --require progress \
	    /tmp/overlay_sweep_trace.jsonl || exit 1; \
	done

# Run a small corrupted-topology repair twice with the same seed, check
# the traces are byte-identical and the converged note was emitted, then
# regenerate the self-stabilization experiments (writes BENCH_e17.json
# and BENCH_e18.json to the repository root; see docs/fault_model.md for
# the corruption spec grammar).
STABILIZE_SPEC ?= class=split,severity=0.5
stabilize-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- stabilize -n 128 \
	  --corruption '$(STABILIZE_SPEC)' \
	  --trace /tmp/overlay_stab_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- stabilize -n 128 \
	  --corruption '$(STABILIZE_SPEC)' \
	  --trace /tmp/overlay_stab_b.jsonl > /dev/null
	cmp /tmp/overlay_stab_a.jsonl /tmp/overlay_stab_b.jsonl
	dune exec bin/trace_check.exe -- --require converged \
	  /tmp/overlay_stab_a.jsonl
	dune exec bin/trace_check.exe -- --require 'repair/*' \
	  /tmp/overlay_stab_a.jsonl
	dune exec bench/main.exe -- e17 e18 > /dev/null

# Run the Chord backend twice with the same seed under churn, faults and
# the stale-view successor-list attack, check the traces are
# byte-identical and the staggered maintenance spans were emitted, then
# regenerate the head-to-head comparison experiment (writes
# BENCH_e19.json to the repository root; see docs/chord.md).
CHORD_SPEC ?= --n 256 --rounds 32 --attack succ-kill --frac 0.2 --churn 0.1 --faults drop=0.02,seed=5 --retry 3
chord-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- chord $(CHORD_SPEC) \
	  --trace /tmp/overlay_chord_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- chord $(CHORD_SPEC) \
	  --trace /tmp/overlay_chord_b.jsonl > /dev/null
	cmp /tmp/overlay_chord_a.jsonl /tmp/overlay_chord_b.jsonl
	dune exec bin/trace_check.exe -- --require chord/maintain \
	  /tmp/overlay_chord_a.jsonl
	dune exec bench/main.exe -- e19 > /dev/null

# Run the Reddit-style social application twice with the same seed —
# sessions, hot-key group-kill and faults all active — check the traces
# are byte-identical and the social/* span family was emitted, then
# regenerate the per-class SLO experiment (writes BENCH_e20.json to the
# repository root; see docs/workloads.md).
SOCIAL_SPEC ?= --n 256 --users 32 --rounds 32 --session 0.85:8 --attack group-kill --frac 0.2 --faults drop=0.02,seed=5
social-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- social $(SOCIAL_SPEC) \
	  --trace /tmp/overlay_social_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- social $(SOCIAL_SPEC) \
	  --trace /tmp/overlay_social_b.jsonl > /dev/null
	cmp /tmp/overlay_social_a.jsonl /tmp/overlay_social_b.jsonl
	dune exec bin/trace_check.exe -- --require 'social/*' \
	  /tmp/overlay_social_a.jsonl
	dune exec bench/main.exe -- e20 > /dev/null

# Engine micro-benchmark: the scaling curve of metered
# Engine.deliver_and_step, the path protocols use (n from 2^12 to 2^18,
# median of 3 runs per point with a cross-run checksum).  Writes
# BENCH_engine.json to the repository root, then gates on it: the fresh
# n=65536 msgs/sec must stay within 80% of the committed baseline
# (bin/bench_gate), so an engine-core regression fails CI instead of
# silently shipping a slower curve.
bench-engine:
	dune build bench/main.exe bin/bench_gate.exe
	cp BENCH_engine.json /tmp/overlay_bench_engine_baseline.json
	dune exec bench/main.exe -- engine
	dune exec bin/bench_gate.exe -- \
	  /tmp/overlay_bench_engine_baseline.json BENCH_engine.json \
	  --n 65536 --min-ratio 0.8

# Binary trace sink end to end: run the same seeded workload through the
# JSONL and binary sinks, check the binary file decodes and its JSONL
# export is byte-identical to the text sink, then run the trace
# micro-benchmark (writes BENCH_trace.json, fails under 5x compression).
trace-bench-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --seed 11 --trace /tmp/overlay_tb.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --seed 11 --trace /tmp/overlay_tb.bin > /dev/null
	dune exec bin/trace_check.exe -- --require request \
	  --export-jsonl /tmp/overlay_tb_export.jsonl /tmp/overlay_tb.bin
	cmp /tmp/overlay_tb_export.jsonl /tmp/overlay_tb.jsonl
	dune exec bench/main.exe -- trace

# A/B the end-to-end benchmark (perfbench/) against revision BASE on this
# machine: export BASE's committed files into a temporary directory, then
# alternate its run and this tree's run of workload W on the held-out seed
# 9973, PAIRS times, swapping which side runs first from pair to pair.
# Prints every run's JSON line and report digests (identical digests mean
# identical results), then feeds them to bench/ab_verdict.py, which prints
# each end-to-end metric's median and IQR per side and a verdict (improved,
# regressed or unresolved) and flags pairs whose digests differ.  The
# temporary directory is removed afterwards.
BASE ?= HEAD
W ?= social-reconfig
PAIRS ?= 6
SECONDS ?= 25
perf-ab:
	@tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" || exit 1; \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) = 1 ]; then order="base this"; else order="this base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then root="$$tmp/base"; else root="$(CURDIR)"; fi; \
	    (cd "$$root" && python3 perfbench/run.py --workload $(W) \
	      --seed 9973 --seconds $(SECONDS) --trace 0) > "$$tmp/out" || exit 1; \
	    { echo "pair $$i $$side $$(tail -n 1 "$$tmp/out")"; \
	      echo "pair $$i $$side $$(grep -o 'digest=[0-9a-f]*' "$$tmp/out" | sort -u | tr '\n' ' ')"; \
	    } | tee -a "$$tmp/pairs"; \
	  done; \
	done; \
	python3 bench/ab_verdict.py < "$$tmp/pairs"

# All the fast health checks in one target: traced-run validation, the
# fault model under churn, the workload driver under attack, sweep
# checkpoint/resume identity, corrupted-topology repair, the Chord
# backend head-to-head, the social application's per-class SLOs, and the
# engine and trace-sink micro-benchmarks.
smoke: trace-smoke fault-smoke workload-smoke sweep-smoke stabilize-smoke chord-smoke social-smoke bench-engine trace-bench-smoke

# The full release gate: build everything, run every test, regenerate
# every experiment table.
check: build test bench

clean:
	dune clean
