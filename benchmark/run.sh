#!/usr/bin/env bash
# The benchmark's build file and entry point (BENCHMARK.json's command): builds
# ./benchmark from source and runs it with the arguments given. The binary and
# the Go build cache both live in .bench_build/ at the root of the checkout, so
# a run reads and writes nothing outside the checkout. `go run ./benchmark`
# does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
