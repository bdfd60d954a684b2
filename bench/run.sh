#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the
# build and the run write stays inside the checkout: the Go build cache,
# compiler temp files and binaries under .bench_build/, traces under
# bench/out/. Arguments are passed through to the harness, e.g.
#
#   bash bench/run.sh --workload serve_hot --seed 7 --seconds 20 --trace 0
#
# In a directory that holds only BENCHMARK.json and bench/ there is no
# program to measure: the build fails and this script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS=-buildvcs=false
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root/bench"
exec "$build/bin/bench" "$@"
