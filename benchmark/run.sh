#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (git-ignored) and runs
# it. Everything the build and the run write — the Go build cache, temporary
# files, the journal DataDir and the span file — stays under .bench_build in
# the current directory, which must be the root of the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
