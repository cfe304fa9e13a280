// xr-mon is the fleet-diagnosis console of §VI, a viewer of the experiment
// registry: it runs one entry of bench.Experiments (-world takes the ids of
// reproduce -only; the default is E26's fleet drill) at quick scale while
// the xrmon collector watches the per-node agent rings, then prints, for
// every cluster world the entry builds, the fleet table (per-node windowed
// rates + status), the incident log (open → escalate → close transitions
// with culprits and confidence) and the chaos log of the faults injected.
// With -watch every incident transition is printed live as it happens;
// -prom adds the detector state in Prometheus exposition format. The same
// worlds' incident sets as JSON are reproduce -only <id> -mon <file>.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xrdma/internal/bench"
	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrmon"
)

func main() {
	world := flag.String("world", "fleet", "registry entry to run, an id of reproduce -only (fleet, robust, gray, ...)")
	seed := flag.Uint64("seed", 42, "seed")
	watch := flag.Bool("watch", false, "print incident transitions live as they happen")
	prom := flag.Bool("prom", false, "print the detector state in Prometheus exposition format")
	flag.Parse()

	col := &telemetry.Collector{}
	observe := col.Observe
	if *watch {
		observe = watchHook(os.Stdout, col)
	}
	if _, err := view(*world, *seed, observe); err != nil {
		fmt.Fprintf(os.Stderr, "xr-mon: %v\n", err)
		os.Exit(2)
	}
	for _, ob := range col.Observations() {
		render(os.Stdout, ob, *prom)
	}
}

// view runs the registry entries world names at quick scale under seed,
// handing observe every engine they build, and returns what they found.
func view(world string, seed uint64, observe func(*sim.Engine, string)) ([]bench.Result, error) {
	sel, err := bench.Select(world)
	if err != nil {
		return nil, err
	}
	sc := bench.Quick()
	sc.Seed, sc.Observe = seed, observe
	var out []bench.Result
	for _, e := range sel {
		out = append(out, e.Run(sc))
	}
	return out, nil
}

// watchHook observes each engine into col and, for a cluster world, prints
// its incident transitions to w as the collector makes them: an open with
// its evidence, in the incident log's own words. It schedules nothing.
func watchHook(w io.Writer, col *telemetry.Collector) func(*sim.Engine, string) {
	return func(eng *sim.Engine, label string) {
		col.Observe(eng, label)
		if cluster.Of(eng) == nil {
			return
		}
		xrmon.For(eng).OnIncident(func(inc *xrmon.Incident, ev string) {
			fmt.Fprintf(w, "%s: t=%v %s class=%s culprit=%s conf=%d\n",
				label, eng.Now(), ev, inc.Class, inc.Culprit, inc.Confidence)
			if ev == "open" {
				for _, e := range inc.Evidence {
					fmt.Fprintf(w, "    evidence: %s\n", e)
				}
			}
		})
	}
}

// render prints one observed world's diagnosis as it stood when its run
// ended. A world of raw NICs has no agents and prints nothing.
func render(w io.Writer, ob telemetry.Observation, prom bool) {
	if cluster.Of(ob.Engine) == nil {
		return
	}
	col := xrmon.For(ob.Engine)
	fmt.Fprintf(w, "== world: %s ==\n%s", ob.Label, col.FleetTable())
	fmt.Fprintln(w, "incident log:")
	for _, line := range col.Log() {
		fmt.Fprintln(w, "  "+line)
	}
	if len(col.Incidents()) == 0 {
		fmt.Fprintln(w, "  (no incidents)")
	}
	if inj := chaos.Of(ob.Engine); inj != nil {
		fmt.Fprintln(w, "chaos log:")
		for _, line := range inj.Digest() {
			fmt.Fprintln(w, "  "+line)
		}
	}
	if prom {
		fmt.Fprintln(w, "prometheus exposition:")
		col.WritePrometheus(w)
	}
	fmt.Fprintln(w)
}
