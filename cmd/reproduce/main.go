// reproduce runs every experiment of DESIGN.md's per-experiment index and
// prints the paper-style tables. Quick scale by default; -full runs closer
// to paper scale (slower). Individual experiments select with -only.
//
// Experiments are independent simulations (each builds its own engine and
// RNG from the seed), so -j runs them on a worker pool; output order is
// the registry order regardless of which worker finished first, and the
// numbers are bit-identical to a -j 1 run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"xrdma/internal/bench"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrmon"
)

func main() {
	full := flag.Bool("full", false, "run at near-paper scale (slow)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig7,fig10,establish)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	jobs := flag.Int("j", runtime.NumCPU(), "experiments to run concurrently")
	cpuProfile := flag.String("cpuprofile", "", "write CPU profile to file")
	memProfile := flag.String("memprofile", "", "write heap profile to file")
	metrics := flag.Bool("metrics", false, "print the per-world metric registry after each experiment")
	metricsProm := flag.Bool("metrics-prom", false, "print each world's metric registry in Prometheus exposition format")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of every observed world to this file")
	blamePath := flag.String("blame", "", "write each world's aggregate blame report (stage attribution) as JSON to this file")
	monPath := flag.String("mon", "", "write each world's fleet-diagnosis report (xrmon epoch, agents, incidents) as JSON to this file")
	flag.Parse()

	selected, err := bench.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(2)
	}

	sc := bench.Quick()
	if *full {
		sc = bench.FullScale()
	}
	sc.Seed = *seed

	// Telemetry collector: observes every engine the experiments create.
	// Timelines are captured only when -trace asks for them; each world's
	// ring is truncated at DefaultTraceCap events (oldest dropped first)
	// so a full run cannot produce a multi-gigabyte file by accident.
	var col *telemetry.Collector
	if *metrics || *metricsProm || *tracePath != "" || *blamePath != "" || *monPath != "" {
		col = &telemetry.Collector{}
		if *tracePath != "" {
			col.TraceCap = telemetry.DefaultTraceCap
		}
		sc.Observe = col.Observe
	}

	if *tracePath != "" && len(selected) == len(bench.Experiments()) {
		fmt.Fprintf(os.Stderr, "reproduce: warning: -trace without -only captures every experiment's timeline; "+
			"rings truncate at %d events per world — use -only fig9,fig10 (or similar) for complete timelines\n",
			telemetry.DefaultTraceCap)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	run(selected, sc, *jobs)

	if col != nil {
		if *metrics {
			printMetrics(col)
		}
		if *metricsProm {
			printMetricsProm(col)
		}
		if *tracePath != "" {
			if err := writeTrace(col, *tracePath); err != nil {
				fail(err)
			}
		}
		if *blamePath != "" {
			n, err := writeWorlds(col, *blamePath, "blame", blameReport)
			if err != nil {
				fail(err)
			}
			if n == 0 {
				fmt.Fprintf(os.Stderr, "reproduce: no world produced blame records — run with -only blame\n")
			} else {
				fmt.Fprintf(os.Stderr, "reproduce: wrote %d blame report(s) to %s\n", n, *blamePath)
			}
		}
		if *monPath != "" {
			n, err := writeWorlds(col, *monPath, "report", monReport)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "reproduce: wrote %d fleet-diagnosis report(s) to %s\n", n, *monPath)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
}

// run executes the selected experiments on up to jobs workers and prints
// each experiment's tables in selection order. A world that weighs the
// process heap runs alone, once the pool has drained.
func run(selected []bench.Experiment, sc bench.Scale, jobs int) {
	jobs = min(max(jobs, 1), len(selected))
	results := make([]bench.Result, len(selected))
	next := make(chan int, len(selected))
	for i, e := range selected {
		if !e.Heap {
			next <- i
		}
	}
	close(next)

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = selected[i].Run(sc)
			}
		}()
	}
	wg.Wait()
	for i, e := range selected {
		if e.Heap {
			results[i] = e.Run(sc)
		}
	}

	for _, r := range results {
		for _, t := range r.Tables {
			fmt.Println(t.String())
		}
	}
}

// fail reports err and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
	os.Exit(1)
}

// printMetrics renders every observed world's metric registry as an
// aligned table, in label order (deterministic across -j values).
func printMetrics(col *telemetry.Collector) {
	for _, ob := range col.Observations() {
		fmt.Printf("== metrics: %s ==\n", ob.Label)
		fmt.Print(ob.Set.Reg.Table())
		fmt.Println()
	}
}

// printMetricsProm renders every observed world's metric registry in
// Prometheus exposition format, in label order.
func printMetricsProm(col *telemetry.Collector) {
	for _, ob := range col.Observations() {
		fmt.Printf("# world: %s\n", ob.Label)
		ob.Set.Reg.WritePrometheus(os.Stdout)
		fmt.Println()
	}
}

// writeWorlds writes one JSON document, {"worlds":[{"label":...,key:{...}},...]},
// in label order (deterministic across -j values): one entry for each
// observed world that report has a writer for. It returns how many.
func writeWorlds(col *telemetry.Collector, path, key string, report func(telemetry.Observation) func(io.Writer) error) (int, error) {
	var b bytes.Buffer
	b.WriteString(`{"worlds":[`)
	n := 0
	for _, ob := range col.Observations() {
		write := report(ob)
		if write == nil {
			continue
		}
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"label":%q,%q:`, ob.Label, key)
		if err := write(&b); err != nil {
			return 0, err
		}
		b.WriteByte('}')
		n++
	}
	b.WriteString("]}\n")
	return n, os.WriteFile(path, b.Bytes(), 0o666)
}

// blameReport writes a world's aggregate blame report (stage attribution);
// worlds with no blame-traced messages have none.
func blameReport(ob telemetry.Observation) func(io.Writer) error {
	if ob.Set.Blame.Count() == 0 {
		return nil
	}
	return ob.Set.Blame.WriteJSON
}

// monReport writes a world's fleet-diagnosis report (xrmon epoch, agents,
// incidents); worlds whose engines never created a context have none.
func monReport(ob telemetry.Observation) func(io.Writer) error {
	m := xrmon.For(ob.Engine)
	if len(m.Agents()) == 0 {
		return nil
	}
	return m.WriteJSON
}

// writeTrace emits the merged Chrome trace_event JSON (one process per
// observed world) and reports any rings that overflowed.
func writeTrace(col *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	events, dropped := 0, uint64(0)
	for _, ob := range col.Observations() {
		events += ob.Set.Trace.Len()
		if d := ob.Set.Trace.Dropped(); d > 0 {
			dropped += d
			fmt.Fprintf(os.Stderr, "reproduce: trace ring for %q dropped %d oldest events (cap %d)\n",
				ob.Label, d, telemetry.DefaultTraceCap)
		}
	}
	fmt.Fprintf(os.Stderr, "reproduce: wrote %d trace events (%d worlds, %d dropped) to %s\n",
		events, len(col.Observations()), dropped, path)
	return nil
}
