#!/usr/bin/env bash
# Build cmd/bench from source inside the checkout and run it with the given
# arguments. The Go build cache and the binary live under .bench_build/ so
# that nothing is written outside the checkout; the compile is therefore
# cold on the first run of a fresh checkout and cached afterwards.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/nicwarp-bench" ./cmd/bench
exec "$build/nicwarp-bench" "$@"
