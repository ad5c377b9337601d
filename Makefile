GO ?= go

.PHONY: all build test race bench serve lint vet fmt fmt-check fuzz-rewrite fuzz-stream

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
	$(GO) test -race ./internal/compiler/... ./internal/route/... ./internal/topo/... ./internal/sim/... ./internal/stab/... ./internal/service/... ./internal/device/... ./internal/store/... ./internal/fleet/... ./internal/experiments/... ./internal/rewrite/... ./internal/template/... ./internal/obs/... ./internal/stream/... ./internal/qasm/... ./cmd/triosd/... ./cmd/triosfleet/...

# Bench smoke: run every Go benchmark exactly once in short mode so the
# compile-path benchmarks cannot silently rot. Not a timing run: performance
# is measured by the serving benchmark, bash perfbench/run.sh.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

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
