#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the benchmark from
# source inside the checkout, then hand every argument to it. Run from
# the repository root. Build products, the Go build cache, the
# compiler's temporary files and the toolchain's own usage counters
# (which go to the user's config directory) stay under .bench_build/, so
# nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
