#!/usr/bin/env bash
# Builds the fillvoid server and the benchmark from source, then runs one
# benchmark workload. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-roi --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the two binaries, result files, traces
# and per-run scratch space.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/fillvoid" ./cmd/fillvoid
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -dir "$build" "$@"
