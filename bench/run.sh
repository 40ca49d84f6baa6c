#!/bin/bash
# BENCHMARK.json's command: builds the benchmark from source into
# <checkout>/.bench_build (Go's build cache included, so nothing is
# written outside the checkout) and runs it from bench/ with the
# arguments given.
set -eu
cd "$(dirname "$0")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/progressbench" .
exec "$out/progressbench" "$@"
