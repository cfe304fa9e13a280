#!/usr/bin/env bash
# run.sh — the whole benchmark in one file: builds the driver once, runs the
# five workloads each in its own process, then the traced runs, then the
# ladder, and merges everything into one JSON document that -compare reads.
#
# Usage: benchmark/run.sh [out.json] [seed] [repeats]
#   out.json  default .bench_build/bench.json
#   seed      default 42; repeat i runs with seed+i
#   repeats   default 1; -compare wants several to tell spread from change
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
out="${1:-$build/bench.json}"
seed="${2:-42}"
repeats="${3:-1}"

go build -o "$build/benchmark" ./benchmark
lines="$build/results.jsonl"
rm -f "$lines"

workloads="pingpong_64B incast_128K onesided_4K mux_mesh_512B connect_churn"
for i in $(seq 0 $((repeats - 1))); do
    for w in $workloads; do
        "$build/benchmark" -workload "$w" -seed $((seed + i)) -out "$lines" | grep -v '^{'
    done
done
for w in $workloads; do
    "$build/benchmark" -workload "$w" -seed "$seed" -trace 1 -trace-out "$build/trace-$w.json" -out "$lines" | grep -v '^{'
done
"$build/benchmark" -ladder -out "$lines"

{
    printf '{"env":{"nproc":%s,"gomaxprocs":"%s","go":"%s","commit":"%s"},"runs":[\n' \
        "$(nproc)" 1 "$(go env GOVERSION)" \
        "$(git rev-parse HEAD 2>/dev/null || echo unknown)"
    paste -sd, "$lines"
    printf ']}\n'
} >"$out"
echo "wrote $out"
