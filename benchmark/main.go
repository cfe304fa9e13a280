// Command benchmark is the repo benchmark: five fixed-work workloads over
// worlds built from internal/cluster, measured from outside by timing and
// counter-reading the layers' exported functions and fields. BENCHMARK.json
// at the repo root names it; README.md here says what each number means.
//
//	go run ./benchmark -workload all -seed 42   end-to-end metrics
//	go run ./benchmark -workload all -trace 1   per-layer metrics + trace.json
//	go run ./benchmark -ladder                  the layer ladder alone
//	go run ./benchmark -compare a.json b.json   verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 42, "seed of the cluster and of the generated inputs")
		seconds  = flag.Float64("seconds", refSeconds, "measuring time the fixed work is scaled to")
		rounds   = flag.Int("rounds", 0, "measured rounds (overrides -seconds)")
		ops      = flag.Int("ops", 0, "ops per round (default: the workload's own)")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics and the ladder")
		ladder   = flag.Bool("ladder", false, "run the layer ladder alone")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		specPath = flag.String("spec", "BENCHMARK.json", "bounds and directions for -compare")
		out      = flag.String("out", "", "append each result as one JSON line to this file")
		traceOut = flag.String("trace-out", "trace.json", "where -trace 1 writes its spans")
	)
	flag.Parse()
	// One thread runs the simulation and the collector both. With the
	// collector on a second core, the host time of the workloads that allocate
	// most (incast_128K, connect_churn) follows whether that core is free,
	// which on a shared host it is not from one run to the next.
	runtime.GOMAXPROCS(1)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		os.Exit(runCompare(*specPath, flag.Arg(0), flag.Arg(1)))
	case *ladder:
		l := runLadder(ladderScale(*seconds))
		l.print(os.Stdout)
		emit(*out, l.res)
		return
	case *workload == "":
		flag.Usage()
		os.Exit(2)
	}

	var list []*spec
	if *workload == "all" {
		list = specs
	} else if s := specByName(*workload); s != nil {
		list = []*spec{s}
	} else {
		fatal("unknown workload %q", *workload)
	}

	ok := true
	var last *result
	for _, s := range list {
		o := runOpts{seed: *seed, warm: warmRounds, ops: s.ops, worlds: 5, trace: *trace == 1}
		o.rounds = max(2, int(math.Round(float64(s.rounds)**seconds/refSeconds)))
		// Fixed work runs long on a slow host; past three times the asked
		// seconds the run stops early rather than miss the driver's limit.
		o.maxWall = time.Duration(3 * *seconds * float64(time.Second))
		if o.trace {
			// R/5 traced rounds, alternated with as many untraced ones.
			o.rounds = max(2, o.rounds/5*2)
		}
		if *rounds > 0 {
			o.rounds, o.warm, o.maxWall = *rounds, min(warmRounds, *rounds), 0
		}
		if *ops > 0 {
			o.ops = *ops
		}
		res, tr := measure(s, o)
		if o.trace {
			// The driver asks one process for every per-layer metric, so a
			// traced run carries the ladder too.
			res.merge(runLadder(ladderScale(*seconds)))
			if err := tr.write(*traceOut); err != nil {
				fatal("write trace: %v", err)
			}
		}
		res.print(os.Stdout)
		emit(*out, res)
		ok = ok && res.Correct
		last = res
	}
	// The last line of standard output is the result of the (last) workload
	// in the form the benchmark driver reads.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func (r *result) merge(l *ladder) {
	for _, name := range l.res.order {
		m := l.res.Metrics[name]
		r.put(name, m.Value, m.Unit)
	}
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d rounds=%d ops/round=%d\n", r.Workload, r.Seed, r.Trace, r.Rounds, r.Ops)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if r.Workload != "ladder" {
		fmt.Fprintf(w, "%-40s %16.6g us, p90 %.6g us (over %d rounds)\n", "host_us_per_op_p50", r.HostP50, r.HostP90, r.Rounds)
		fmt.Fprintf(w, "%-40s %16d (%d beyond p99)\n", "latency_samples", r.Samples, r.Samples/100)
		fmt.Fprintf(w, "%-40s %16s\n", "sim_digest", r.Digest)
		fmt.Fprintf(w, "%-40s %16.6g ratio (%d failed of %d)\n", "op_fail_ratio", per(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	}
	if r.Truncated {
		fmt.Fprintf(w, "WARNING: stopped after %d rounds, the host is too slow for the fixed work; sim_* values differ from a full run\n", r.Rounds)
	}
}

// emit appends one result to the -out file.
func emit(path string, r *result) {
	if path == "" {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatal("%v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal("%v", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		fatal("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatal("close %s: %v", path, err)
	}
}
