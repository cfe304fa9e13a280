#!/bin/sh
# bench.sh — the one writer and the one checker of BENCH_e2e.json, the
# repo's perf record: one row per change, each holding the five workloads'
# end-to-end medians, the layer ladder's counts and the kernel
# microbenchmarks.
#
#   scripts/bench.sh [run.json]   measure the kernel benches and the ladder,
#                                 fold in a benchmark/run.sh result file if
#                                 one is given, and append a row for HEAD
#   scripts/bench.sh -check       the CI gate: fail when a count is above
#                                 its contract or above the last row
#
# -check fails when
#   - a benchmark in $zero allocates (their contract is 0 allocs/op; a
#     benchmark may also fail itself, as FabricHop does above one event
#     per link);
#   - IdleChannelFootprint costs more than 1024 bytes/conn: a flyweight
#     channel descriptor must stay under 1 KiB or the 4000-node world
#     stops fitting;
#   - a ladder `_events` rung is above the last row's, or an `_allocs`
#     rung is above it by more than 0.01. Both are deterministic, so they
#     hold on shared runners; a rung the last row lacks fails too.
# Host ns are printed, never gated. A change that lowers a count appends
# its row, so the next change is held to it.
#
# TracedSendPath is recorded but not gated: an armed trace bit pays one
# PktBlame per message by design, and its delta against UntracedSendPath
# is the armed cost of the blame plane.
set -eu

cd "$(dirname "$0")/.."
record=BENCH_e2e.json
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The zero-alloc kernel benchmarks of sim, telemetry, fabric, rnic and
# xrmon, plus internal/xrdma's BuddyAlloc; xrdma's IdleChannelFootprint is
# gated on bytes/conn instead.
zero='BenchmarkEngine|BenchmarkTableChurn|BenchmarkTelemetry|BenchmarkFabricHop|BenchmarkUntracedSendPath|BenchmarkPostedRecvPath|BenchmarkOneSidedReadPath|BenchmarkReadInPlace64K|BenchmarkReadSizeOnly64K|BenchmarkRecvInPlace|BenchmarkRecvSlotCycle|BenchmarkRetransmitUnacked|BenchmarkPacedSend|BenchmarkQPCacheMiss|BenchmarkAgentSample'
chan='BenchmarkIdleChannelFootprint|BenchmarkBuddyAlloc'

# kernel PATTERN BENCHTIME: run the kernel benches into $work/kernel.out.
# bytes/conn includes each descriptor's share of the cid table, which depends
# on how many there are, so the footprint always counts 10000 of them.
kernel() {
    {
        go test ./internal/sim/ ./internal/telemetry/ ./internal/fabric/ ./internal/rnic/ ./internal/xrmon/ \
            -run '^$' -bench "$1" -benchmem -benchtime="$2" &&
            go test ./internal/xrdma/ -run '^$' -bench "$chan" -benchmem -benchtime=10000x
    } >"$work/kernel.out" || { cat "$work/kernel.out"; exit 1; }
    cat "$work/kernel.out"
}

# ladder: run the layer ladder into $work/ladder.json as {rung: value}.
ladder() {
    go run ./benchmark -ladder -out "$work/ladder.jsonl"
    jq '.metrics | map_values(.value)' "$work/ladder.jsonl" >"$work/ladder.json"
}

if [ "${1:-}" = "-check" ]; then
    # 1000 iterations amortize one-time setup (ring and heap growth) to
    # 0 allocs/op without spending CI minutes on timing.
    kernel "$zero" 1000x
    awk -v zero="^($zero|BenchmarkBuddyAlloc)" '
    /^Benchmark/ {
        for (i = 2; i < NF; i++) {
            if ($1 ~ zero && $(i+1) == "allocs/op" && $i+0 > 0) print "FAIL: " $1 " allocates " $i " per op (contract 0)"
            if ($1 ~ /^BenchmarkIdleChannelFootprint/ && $(i+1) == "bytes/conn" && $i+0 > 1024) print "FAIL: idle channel costs " $i " bytes/conn (budget 1024)"
        }
    }' "$work/kernel.out" >"$work/verdict"
    ladder
    jq -r --slurpfile rec "$record" '
        ($rec[0].rows[-1].ladder // {}) as $last
        | to_entries[]
        | select(.key | test("_(events|allocs)$"))
        | (if (.key | endswith("_allocs")) then 0.01 else 0 end) as $slack
        | if $last[.key] == null then "FAIL: ladder \(.key) = \(.value) has no recorded value: append a row"
          elif .value > $last[.key] + $slack then "FAIL: ladder \(.key) = \(.value), recorded \($last[.key])"
          elif .value < $last[.key] - $slack then "lower: ladder \(.key) = \(.value), recorded \($last[.key]): append a row"
          else empty end' "$work/ladder.json" >>"$work/verdict"
    cat "$work/verdict"
    if grep -q '^FAIL' "$work/verdict"; then exit 1; fi
    echo "bench check: kernel and ladder counts within $record's last row" >&2
    exit 0
fi

kernel "$zero|BenchmarkTracedSendPath" 2s >&2
ladder >&2
awk '/^Benchmark/ {
    name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    row = "{\"name\": \"" name "\""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") row = row ", \"ns_per_op\": " $i
        if ($(i+1) == "allocs/op") row = row ", \"allocs_per_op\": " $i
        if ($(i+1) == "bytes/conn") row = row ", \"bytes_per_conn\": " $i
    }
    print row "}"
}' "$work/kernel.out" | jq -s . >"$work/kernel.json"

# A benchmark/run.sh result: per workload, the median over its untraced
# runs of each end-to-end metric BENCHMARK.json names, the first seed's
# digest, and events per op from its traced run.
echo '{}' >"$work/workloads.json"
if [ $# -gt 0 ]; then
    jq --slurpfile spec BENCHMARK.json '
        def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        [$spec[0].end_to_end[].name] as $names
        | .runs | map(select(.workload != "ladder")) | group_by(.workload)
        | map(
            (map(select(.trace == 0)) | sort_by(.seed)) as $plain
            | {key: .[0].workload, value: (
                reduce $names[] as $n ({}; .[$n] = ($plain | map(.metrics[$n].value) | median))
                + {sim_digest: $plain[0].sim_digest,
                   seeds: ($plain | map(.seed)),
                   failed: ($plain | map(.failed) | add),
                   "sim.events_per_op": (map(select(.trace == 1))[0].metrics["sim.events_per_op"].value)})})
        | from_entries' "$1" >"$work/workloads.json"
fi

dirty=false
if [ -n "$(git status --porcelain -- . ":!$record")" ]; then dirty=true; fi
jq --arg commit "$(git rev-parse HEAD)" --argjson dirty "$dirty" \
    --arg date "$(date -u +%Y-%m-%d)" --arg go "$(go env GOVERSION)" \
    --argjson nproc "$(getconf _NPROCESSORS_ONLN)" \
    --slurpfile workloads "$work/workloads.json" \
    --slurpfile ladder "$work/ladder.json" \
    --slurpfile kernel "$work/kernel.json" '
    .rows += [{commit: $commit, dirty: $dirty, date: $date, source: "measured",
               host: {nproc: $nproc, go: $go},
               workloads: $workloads[0], ladder: $ladder[0], kernel: $kernel[0]}]' \
    "$record" >"$work/record.json"
mv "$work/record.json" "$record"
echo "appended a row for $(git rev-parse --short HEAD) to $record" >&2
