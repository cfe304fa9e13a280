// xr-stat is the netstat analogue of §VI-B, a viewer of the experiment
// registry: it runs one entry of bench.Experiments (-world takes the ids
// of reproduce -only) at quick scale and prints, for every cluster world
// the entry builds, the per-connection table of each node that holds a
// channel (including the path-doctor, one-sided, tenant, version and
// drain columns), node 0's xrmon agent samples, the blame table when the
// world traced messages, and the flight-recorder dumps. The same worlds'
// full metric registries are reproduce -only <id> -metrics (or
// -metrics-prom).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xrdma/internal/bench"
	"xrdma/internal/cluster"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
	"xrdma/internal/xrmon"
)

func main() {
	world := flag.String("world", "gray", "registry entry to run, an id of reproduce -only (gray, scale, blame, storm, tenants, upgrade, ...)")
	seed := flag.Uint64("seed", 42, "seed")
	flag.Parse()

	col := &telemetry.Collector{}
	if _, err := view(*world, *seed, col.Observe); err != nil {
		fmt.Fprintf(os.Stderr, "xr-stat: %v\n", err)
		os.Exit(2)
	}
	for _, ob := range col.Observations() {
		render(os.Stdout, ob)
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

// render prints one observed world as it stood when its run ended. A world
// of raw NICs has no contexts to show and prints nothing.
func render(w io.Writer, ob telemetry.Observation) {
	c := cluster.Of(ob.Engine)
	if c == nil {
		return
	}
	fmt.Fprintf(w, "== world: %s ==\n", ob.Label)
	for _, nd := range c.Nodes {
		if len(nd.Ctx.Channels()) > 0 {
			fmt.Fprintln(w, xrdma.XRStat(nd.Ctx))
		}
	}
	// Oldest tick first; a slot's value k ticks ago is its latest absolute
	// value minus the deltas since.
	if a := xrmon.For(ob.Engine).AgentFor(int32(c.Nodes[0].ID)); a != nil {
		fmt.Fprintln(w, "monitor samples for node 0, the agent's window (QPs, mem, msgs):")
		for k := a.Len() - 1; k >= 0; k-- {
			abs := func(slot int) int64 { return a.Abs(slot) - a.LastN(slot, k) }
			fmt.Fprintf(w, "  t=%-14v qps=%-3d occupy=%-9d in-use=%-9d sent=%-6d recv=%-6d slowpolls=%d\n",
				a.At(k), abs(xrmon.SlotQPs), abs(xrmon.SlotMemOccupied), abs(xrmon.SlotMemInUse),
				abs(xrmon.SlotMsgsSent), abs(xrmon.SlotMsgsRecv), abs(xrmon.SlotSlowPolls))
		}
	}
	if ob.Set.Blame.Count() > 0 {
		fmt.Fprintln(w, "\nblame attribution (engine-wide, sampled messages):")
		fmt.Fprint(w, ob.Set.Blame.Table())
	}
	if dumps := ob.Set.Flight.Dumps(); len(dumps) > 0 {
		fmt.Fprintf(w, "\nflight recorder: %d dump(s)\n", len(dumps))
		for _, d := range dumps {
			fmt.Fprintln(w, d.String())
		}
	}
	fmt.Fprintln(w)
}
