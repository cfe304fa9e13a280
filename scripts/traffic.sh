#!/bin/sh
# traffic.sh — which code does everything the repo calls production reach?
# Builds every cmd/*, examples/* and ./benchmark with coverage counters for the
# whole module, drives them through the invocation list below (reproduce quick
# with every observer, the xr-stat and xr-mon viewers over the drills, the
# other tools, the examples, the five benchmark workloads, a traced run and the
# ladder), and prints the functions under a package prefix no run reached, then
# statements reached per package. A function at 0 % here is run by tests alone:
# measure with this before deciding what a feature is worth, instead of
# planting panics.
# -coverpkg must be ./... — xrdma/internal/... builds fine and emits no counters.
# About 5 min on 2 cores (reproduce under -cover is most of it): a recipe, not a
# CI gate. Writes only to its temp dir and Go's build cache.
#
# Usage: scripts/traffic.sh [pkg-prefix]   (default: xrdma/internal/xrdma/)
set -eu

cd "$(dirname "$0")/.."
prefix="${1:-xrdma/internal/xrdma/}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov"
for d in cmd/* examples/* benchmark; do
    go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$d")" "./$d"
done
export GOCOVERDIR="$tmp/cov"
run() { b="$1"; shift; "$tmp/bin/$b" "$@" >/dev/null 2>"$tmp/err" || { cat "$tmp/err" >&2; exit 1; }; }

run reproduce -j 2 -metrics -trace "$tmp/t.json" -blame "$tmp/b.json" -mon "$tmp/m.json"
for world in gray scale blame storm tenants upgrade; do run xr-stat -world $world; done
run xr-mon -world fleet -watch -prom
run xr-perf; run xr-perf -mode closed -prom
run xr-ping; run xr-ping -slow 2
run xr-adm; run xr-server
for ex in examples/*; do run "$(basename "$ex")"; done
for w in pingpong_64B incast_128K onesided_4K mux_mesh_512B connect_churn; do
    run benchmark -workload $w -seed 42 -seconds 1
done
run benchmark -workload pingpong_64B -seed 42 -seconds 1 -trace 1 -trace-out "$tmp/spans.json"
run benchmark -ladder

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.txt"
echo "functions under $prefix reached by no run:"
go tool cover -func="$tmp/cover.txt" | awk -v p="$prefix" 'index($1, p) == 1 && $NF == "0.0%" { print "  " $1, $2 }'
echo "statements reached, per package:"
awk 'NR > 1 { blk = $1; n[blk] = $2; if ($3 > 0) hit[blk] = 1 }
    END { for (b in n) { pkg = b; sub(/\/[^\/]*$/, "", pkg); all[pkg] += n[b]; T += n[b]; if (hit[b]) { got[pkg] += n[b]; G += n[b] } }
          for (pkg in all) printf "  %-28s %6d of %6d  %5.1f%%\n", pkg, got[pkg], all[pkg], 100 * got[pkg] / all[pkg] | "sort"
          close("sort"); printf "  %-28s %6d of %6d  %5.1f%%\n", "total", G, T, 100 * G / T }' "$tmp/cover.txt"
