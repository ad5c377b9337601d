GO ?= go

# Benchmark runs need real parallelism to measure anything: a 1-2 core CI
# runner would silently suppress every parallel arm. GOMAXPROCS is honored by
# the Go runtime even above the core count, so floor it at 4 for all bench
# targets (callers can still override: GOMAXPROCS=8 make bench-service).
GOMAXPROCS ?= 4
BENCH_ENV = GOMAXPROCS=$(GOMAXPROCS)

.PHONY: all build test race bench bench-route bench-sim bench-kernels bench-noise bench-optimize bench-stream bench-service bench-fleet bench-obs fleet serve loadgen lint vet fmt fmt-check bench-json fuzz-rewrite fuzz-stream

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrent compilation engine, the routers it drives, the
# lazily-built per-device distance oracle they all share, the simulation
# engine's parallel sweeps and trajectory workers, the serving layer's
# cache/singleflight/admission machinery, the persistent artifact store, and
# the fleet proxy's routing/health paths.
race:
	$(GO) test -race ./internal/compiler/... ./internal/route/... ./internal/topo/... ./internal/sim/... ./internal/stab/... ./internal/service/... ./internal/device/... ./internal/store/... ./internal/fleet/... ./internal/experiments/... ./internal/rewrite/... ./internal/template/... ./internal/obs/... ./internal/stream/... ./internal/qasm/...

# Bench smoke: run every benchmark exactly once in short mode so the
# compile-path benchmarks cannot silently rot. Not a timing run.
bench:
	$(BENCH_ENV) $(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Routing micro-benchmarks: router end-to-end timings plus old-vs-new path
# machinery (legacy per-query BFS/Dijkstra vs the distance-oracle lookups).
bench-route:
	$(GO) test -run '^$$' -bench 'Router|Distances|ShortestPath|Weighted|Oracle' -benchmem ./internal/route/... ./internal/topo/...

# Emit the machine-readable compile-path benchmark for the perf trajectory.
bench-json:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -bench-json BENCH_compile.json

# Simulation-engine benchmark: legacy full-scan kernels vs fused branch-free
# kernels (serial + parallel), serial Monte-Carlo vs the parallel trajectory
# backend, and dense vs stabilizer on a 20-qubit Clifford verification.
# Writes BENCH_sim.json and a BENCH_sim.txt summary. (Redirect, not tee: a
# pipe would swallow the benchmark's exit status and let a determinism
# failure pass CI.)
bench-sim:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -sim-bench BENCH_sim.json > BENCH_sim.txt
	cat BENCH_sim.txt

# Kernel micro-benchmark: the preserved legacy arms (branchy delta-scoring,
# full-scan gate loops) vs the branch-free slab/kernel rewrites, old-vs-new
# in one report. Writes BENCH_kernels.json and a BENCH_kernels.txt summary.
bench-kernels:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -kernel-bench BENCH_kernels.json > BENCH_kernels.txt
	cat BENCH_kernels.txt

# Noise-aware sweep: the benchmark suite compiled under per-device
# calibrations with the Uniform vs Noise cost models, evaluated on estimated
# success. Writes BENCH_noise.json and prints the comparison; exits nonzero
# if the noise-aware arm loses on mean. NOISE_BENCH_FLAGS=-noise-short
# shrinks it to the CI subset.
bench-noise:
	$(GO) run ./cmd/experiments -noise-bench BENCH_noise.json $(NOISE_BENCH_FLAGS)

# Optimizer benchmark: legacy cancel loop vs the saturating rewrite engine
# across the Table-1 grid (two-qubit counts old-vs-new, divergent cells
# statevector-verified) plus template-warm cold-compile latency. Writes
# BENCH_optimize.json and a BENCH_optimize.txt summary; exits nonzero if any
# cell regresses vs legacy or a divergence fails equivalence.
# OPT_BENCH_FLAGS=-opt-short shrinks it to the CI subset.
bench-optimize:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -opt-bench BENCH_optimize.json $(OPT_BENCH_FLAGS) > BENCH_optimize.txt
	cat BENCH_optimize.txt

# Streaming-compile benchmark: the serial vs channel-pipelined window
# drivers on a generated million-gate Clifford+T stream (bit-identical
# outputs asserted in-run), plus subprocess peak-RSS samples showing memory
# is governed by the window, not the circuit length. Writes
# BENCH_stream.json and a BENCH_stream.txt summary; exits nonzero if the
# streamed output diverges from the monolithic golden arm or peak RSS
# exceeds the window budget. STREAM_BENCH_FLAGS=-stream-short shrinks the
# gate counts for CI.
bench-stream:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -stream-bench BENCH_stream.json $(STREAM_BENCH_FLAGS) > BENCH_stream.txt
	cat BENCH_stream.txt

# Streaming-parser fuzz: FuzzStreamParse holds the pull-based QASM reader to
# the in-memory parser gate for gate, with bounded errors on oversized
# statements. The corpus-backed check runs in `make test`; this fuzzes
# beyond it.
fuzz-stream:
	$(GO) test -run '^$$' -fuzz FuzzStreamParse -fuzztime 30s ./internal/qasm/

# Confluence fuzz: random rule-application orders (seeded pop orders) must
# saturate to the same final gate counts. The smoke test runs in `make
# test`; this target fuzzes beyond the checked-in corpus.
fuzz-rewrite:
	$(GO) test -run '^$$' -fuzz FuzzConfluence -fuzztime 30s ./internal/rewrite/

# Run the compile daemon locally (ctrl-c drains gracefully).
serve:
	$(GO) run ./cmd/triosd

# Drive a running daemon with the standard benchmark mix.
loadgen:
	$(GO) run ./cmd/loadgen

# Serving benchmark: build triosd + loadgen, serve on a local port, replay
# the standard mix closed-loop, and write BENCH_service.json (throughput,
# latency quantiles, cache hit rate). TRIOSD_RACE=-race instruments the
# daemon for the CI smoke.
bench-service:
	$(BENCH_ENV) sh scripts/bench_service.sh

# Fleet benchmark: 3 triosd replicas (each with a persistent artifact store)
# behind the triosfleet consistent-hash proxy. Measures single-vs-fleet
# throughput, kills a replica mid-run, then restarts everything and asserts
# the warm-restart hit rate. Writes BENCH_fleet.json. TRIOSD_RACE=-race
# instruments the daemons for the CI smoke; FLEET_MIN_SPEEDUP tightens the
# scaling floor.
bench-fleet:
	$(BENCH_ENV) sh scripts/bench_fleet.sh

# Observability-cost benchmark: serve the same daemon with tracing off, then
# on (the default), drive the identical mix against each, and write
# BENCH_obs.json with tracing_on_vs_off_ratio. Fails if tracing costs more
# than 5% of throughput (OBS_MIN_RATIO) or the trace ring comes back empty.
# TRIOSD_RACE=-race instruments the daemon for the CI smoke.
bench-obs:
	$(BENCH_ENV) sh scripts/bench_obs.sh

# Run a local 3-replica fleet behind the proxy until ctrl-c (no benchmark).
fleet:
	FLEET_HOLD=1 sh scripts/bench_fleet.sh

# perfbench is its own module built against this one, so the root ./...
# does not reach it: vet it too, so a compiler API change that breaks the
# benchmark fails here rather than in a benchmark run.
vet:
	$(GO) vet ./...
	cd perfbench && GOWORK=off $(GO) vet ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check
