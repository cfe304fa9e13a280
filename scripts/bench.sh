#!/bin/sh
# bench.sh — run the simulation-kernel and telemetry microbenchmarks and
# emit BENCH_kernel.json: current ns/op + allocs/op per benchmark next to
# the committed container/heap baseline, with the speedup factor.
# EngineTimers (the fleet's standing timer mix over the two-tier queue) has
# no pre-rewrite baseline; its contract is allocs/op == 0, like the other
# Engine rows.
# Telemetry benchmarks have no pre-rewrite baseline; their contract is
# allocs/op == 0 (enforced by the CI bench smoke), as are the fabric hop's
# (FabricHop: one 64 B frame over four links, which also fails above one
# event per link), the untraced RNIC send path's, the posted-receive
# path's, the one-sided READ requester path's, the two in-place landings'
# (ReadInPlace64K,
# RecvInPlace: bytes go between registered buffers, nothing is allocated),
# the size-only READ's (ReadSizeOnly64K: a rendezvous pull that moves lengths)
# and a go-back-N round's (RetransmitUnacked: 32 WRs re-enqueued per op).
# TracedSendPath is informational: its delta against UntracedSendPath is
# the armed cost of the blame plane.
# IdleChannelFootprint's contract is bytes/conn <= 1024 (the flyweight
# channel budget, also CI-gated). The middleware's own round trips are
# measured by the benchmark/ ladder (xrdma.classic_rtt, xrdma.mux_rtt) and
# gated by internal/xrdma's TestSteadyStateAllocs, not here.
# BuddyAlloc's contract is allocs/op == 0 (CI-gated): steady-state buddy
# alloc/free reuses free-list capacity and never touches the heap.
# AgentSample's contract is allocs/op == 0 (CI-gated): the xrmon fleet
# agent samples its delta ring on every node's housekeeping tick.
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_kernel.json)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_kernel.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test ./internal/sim/ ./internal/telemetry/ ./internal/fabric/ ./internal/rnic/ ./internal/xrmon/ -run '^$' \
    -bench 'BenchmarkEngine|BenchmarkTelemetry|BenchmarkFabricHop|BenchmarkUntracedSendPath|BenchmarkTracedSendPath|BenchmarkPostedRecvPath|BenchmarkOneSidedReadPath|BenchmarkReadInPlace64K|BenchmarkReadSizeOnly64K|BenchmarkRecvInPlace|BenchmarkRetransmitUnacked|BenchmarkAgentSample' -benchmem \
    -benchtime=2s -count=1 | tee "$tmp" >&2
go test ./internal/xrdma/ -run '^$' -bench 'BenchmarkBuddyAlloc' -benchmem \
    -benchtime=1s -count=1 | tee -a "$tmp" >&2
# bytes/conn includes each descriptor's share of the cid map, which depends
# on how many there are: count what the CI gate counts.
go test ./internal/xrdma/ -run '^$' -bench 'BenchmarkIdleChannelFootprint' -benchmem \
    -benchtime=10000x -count=1 | tee -a "$tmp" >&2

# Baseline: container/heap scheduler + per-event heap allocation, measured
# on the same benchmarks before the 4-ary-heap/free-list rewrite.
awk '
BEGIN {
    base["EngineSchedule/depth=16"]   = 127.4; base_allocs["EngineSchedule/depth=16"]   = 1
    base["EngineSchedule/depth=256"]  = 224.3; base_allocs["EngineSchedule/depth=256"]  = 1
    base["EngineSchedule/depth=4096"] = 363.1; base_allocs["EngineSchedule/depth=4096"] = 1
    base["EngineChurn"]               = 319.2; base_allocs["EngineChurn"]               = 2
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""; bpc = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        if ($(i + 1) == "bytes/conn") bpc = $i
    }
    if (ns == "") next
    names[n] = name; nsop[n] = ns; al[n] = allocs; bytesconn[n] = bpc; n++
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        b = (names[i] in base) ? base[names[i]] : 0
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s",
               names[i], nsop[i], (al[i] == "" ? "null" : al[i])
        if (bytesconn[i] != "")
            printf ", \"bytes_per_conn\": %s", bytesconn[i]
        if (b > 0)
            printf ", \"baseline_ns_per_op\": %s, \"baseline_allocs_per_op\": %s, \"speedup\": %.2f",
                   b, base_allocs[names[i]], b / nsop[i]
        printf "}%s\n", (i < n - 1 ? "," : "")
    }
    printf "  ],\n  \"baseline\": \"container/heap scheduler, pre-rewrite\"\n}\n"
}
' "$tmp" > "$out"

echo "wrote $out" >&2
