#!/usr/bin/env bash
# bench.sh — the command BENCHMARK.json names. Builds the driver from source
# inside the checkout (.bench_build/, with its own Go build cache, so nothing
# is read or written outside the checkout), then runs it with the arguments
# it was given:
#
#   bash benchmark/bench.sh --workload pingpong_64B --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the result as one JSON object.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "bench.sh: $(pwd) is not a checkout of the repository (no go.mod, no internal/)" >&2
    exit 3
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -trace-out "$build/trace.json" "$@"
