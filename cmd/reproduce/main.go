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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"xrdma/internal/bench"
	"xrdma/internal/sim"
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

	reg := bench.Experiments()
	valid := make(map[string]bool, len(reg))
	ids := make([]string, 0, len(reg))
	for _, e := range reg {
		valid[e.ID] = true
		ids = append(ids, e.ID)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	var unknown []string
	for id := range want {
		if !valid[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment id(s): %s\nvalid ids: %s\n",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
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
	if *metrics || *metricsProm || *tracePath != "" || *blamePath != "" {
		col = &telemetry.Collector{}
		if *tracePath != "" {
			col.TraceCap = telemetry.DefaultTraceCap
		}
		sc.Observe = col.Observe
	}
	// Fleet-diagnosis export: remember each observed world's xrmon
	// collector (an engine-keyed singleton, so this attaches no new
	// machinery and perturbs nothing) and dump the reports after the run.
	var monMu sync.Mutex
	var mons map[string]*xrmon.Collector
	if *monPath != "" {
		mons = map[string]*xrmon.Collector{}
		prev := sc.Observe
		sc.Observe = func(eng *sim.Engine, label string) {
			if prev != nil {
				prev(eng, label)
			}
			monMu.Lock()
			mons[label] = xrmon.For(eng)
			monMu.Unlock()
		}
	}

	if *tracePath != "" && len(want) == 0 {
		fmt.Fprintf(os.Stderr, "reproduce: warning: -trace without -only captures every experiment's timeline; "+
			"rings truncate at %d events per world — use -only fig9,fig10 (or similar) for complete timelines\n",
			telemetry.DefaultTraceCap)
	}

	var selected []bench.Experiment
	for _, e := range reg {
		if len(want) == 0 || want[e.ID] {
			selected = append(selected, e)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
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
				fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
				os.Exit(1)
			}
		}
		if *blamePath != "" {
			if err := writeBlame(col, *blamePath); err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *monPath != "" {
		if err := writeMon(mons, *monPath); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}
}

// run executes the selected experiments on up to jobs workers and prints
// each experiment's tables in selection order. A world that weighs the
// process heap runs alone, once the pool has drained.
func run(selected []bench.Experiment, sc bench.Scale, jobs int) {
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(selected) {
		jobs = len(selected)
	}
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

// writeBlame emits each observed world's aggregate blame report as one
// JSON document: {"worlds":[{"label":...,"blame":{...}},...]}. Worlds
// with no blame-traced messages are skipped.
func writeBlame(col *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	worlds := 0
	if _, err := f.WriteString(`{"worlds":[`); err != nil {
		f.Close()
		return err
	}
	for _, ob := range col.Observations() {
		if ob.Set.Blame.Count() == 0 {
			continue
		}
		sep := ","
		if worlds == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(f, `%s{"label":%q,"blame":`, sep, ob.Label); err != nil {
			f.Close()
			return err
		}
		if err := ob.Set.Blame.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteString("}"); err != nil {
			f.Close()
			return err
		}
		worlds++
	}
	if _, err := f.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if worlds == 0 {
		fmt.Fprintf(os.Stderr, "reproduce: no world produced blame records — run with -only blame\n")
	} else {
		fmt.Fprintf(os.Stderr, "reproduce: wrote %d blame report(s) to %s\n", worlds, path)
	}
	return nil
}

// writeMon emits each observed world's fleet-diagnosis report as one JSON
// document: {"worlds":[{"label":...,"report":{...}},...]}, in label order
// (deterministic across -j values). Worlds whose engines never created a
// context have zero agents and are skipped.
func writeMon(mons map[string]*xrmon.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	labels := make([]string, 0, len(mons))
	for label, col := range mons {
		if len(col.Agents()) > 0 {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	if _, err := f.WriteString(`{"worlds":[`); err != nil {
		f.Close()
		return err
	}
	for i, label := range labels {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(f, `%s{"label":%q,"report":`, sep, label); err != nil {
			f.Close()
			return err
		}
		if err := mons[label].WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteString("}"); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reproduce: wrote %d fleet-diagnosis report(s) to %s\n", len(labels), path)
	return nil
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
