#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. The benchmark is its own Go
# module (go.mod here, `replace ddsim => ../`), so it is built from
# this directory; the program finds the repository one level up.
# Everything the build writes (binary, Go build cache, temporary files)
# goes to .bench_build/ in the checkout, so a run touches nothing
# outside it; only the first run of a checkout compiles.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
