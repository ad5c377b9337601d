GO ?= go

.PHONY: all build test race bench serve lint vet fmt fmt-check fuzz-rewrite fuzz-qasm fma-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrent compilation engine, the routers it drives, the
# lazily-built per-device distance oracle they all share, the simulation
# engine's parallel sweeps and trajectory workers, the serving layer's
# cache/singleflight/admission machinery, the persistent artifact store, the
# fleet proxy's routing/health paths, and the triosd and triosfleet daemons
# end to end (start, serve, trace, drain, warm restart).
race:
	$(GO) test -race ./internal/compiler/... ./internal/route/... ./internal/topo/... ./internal/sim/... ./internal/stab/... ./internal/service/... ./internal/device/... ./internal/store/... ./internal/fleet/... ./internal/experiments/... ./internal/rewrite/... ./internal/obs/... ./internal/stream/... ./internal/qasm/... ./cmd/triosd/... ./cmd/triosfleet/...

# Bench smoke: run every Go benchmark exactly once in short mode so the
# compile-path benchmarks cannot silently rot. Not a timing run: performance
# is measured by the serving benchmark, bash perfbench/run.sh.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# QASM round-trip fuzz, 10 s per target (go test fuzzes one target per
# run): FuzzParse re-emits and re-parses whatever Parse accepts,
# FuzzStreamParse holds the pull-based reader to Parse gate for gate,
# FuzzParseMatchesReference holds Parse and the reader to the strings-based
# reference parser (verdict, gates, register size and error), and
# FuzzAppendGate holds the gate renderer to its fmt reference. The seed
# corpora run in `make test`; this fuzzes beyond them.
fuzz-qasm:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/qasm/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamParse$$' -fuzztime 10s ./internal/qasm/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime 10s ./internal/qasm/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendGate$$' -fuzztime 10s ./internal/qasm/

# Confluence fuzz: random rule-application orders (seeded pop orders) must
# saturate to the same final gate counts and the same lowered two-qubit
# weight. Neither holds for every circuit yet (circuit seed -17 breaks the
# weight within a second), so this target fails and is not in CI. The
# smoke test runs in `make test`; this target fuzzes beyond it.
fuzz-rewrite:
	$(GO) test -run '^$$' -fuzz FuzzConfluence -fuzztime 30s ./internal/rewrite/

# Fused multiply-add ratchet: the Go compilers for arm64, ppc64le and
# riscv64 may fuse x*y+z, skipping a rounding, so output computed in floats
# could differ from the amd64 bytes every fixture pins. This cross-compiles
# ./cmd/... for those three, disassembles the trios/ functions, and fails
# on a fused instruction in a function missing from
# scripts/fma-allowlist.txt, or on an entry with none left. Each entry says
# why it cannot change served bytes or which ROADMAP step removes it. On 2
# vCPU it took 76 s with an empty build cache and 7 s warm, so it runs in
# CI, not in `make test`.
fma-check:
	GO=$(GO) bash scripts/fma-check.sh

# Run the compile daemon locally (ctrl-c drains gracefully).
serve:
	$(GO) run ./cmd/triosd

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
