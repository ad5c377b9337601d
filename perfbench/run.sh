#!/usr/bin/env bash
# Builds the triosd daemon and the benchmark runner from the sources of the
# checkout it is started in, then runs the benchmark:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, span dumps, the
# per-seed exactness ledger) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
# The toolchain keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/triosd" ./cmd/triosd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -triosd "$out/triosd" -out "$out" "$@"
