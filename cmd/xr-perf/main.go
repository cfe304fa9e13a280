// xr-perf is the XR-Perf utility of §VI-B: a flexible load generator with
// customisable flow models (elephant/mice mixes, open or closed loop) that
// reports latency percentiles, goodput and the congestion counters the
// monitoring system collects.
package main

import (
	"flag"
	"fmt"
	"os"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
)

func main() {
	senders := flag.Int("senders", 8, "number of client nodes")
	mice := flag.Int("mice", 512, "mice payload bytes")
	elephant := flag.Int("elephant", 128<<10, "elephant payload bytes")
	elephantFrac := flag.Float64("elephant-frac", 0.2, "fraction of elephant flows")
	mode := flag.String("mode", "open", "open (poisson) or closed (fixed depth)")
	mean := flag.Duration("mean", 0, "open-loop mean inter-arrival (e.g. 500us)")
	depth := flag.Int("depth", 8, "closed-loop queue depth")
	dur := flag.Duration("dur", 0, "simulated duration (default 1s)")
	seed := flag.Uint64("seed", 1, "seed")
	prom := flag.Bool("prom", false, "print the metric registry in Prometheus exposition format")
	flag.Parse()
	if *senders < 1 {
		fmt.Fprintf(os.Stderr, "xr-perf: -senders %d names no client (want at least 1)\n", *senders)
		os.Exit(2)
	}

	horizon := sim.Second
	if *dur > 0 {
		horizon = sim.Dur(*dur)
	}
	meanArr := 500 * sim.Microsecond
	if *mean > 0 {
		meanArr = sim.Dur(*mean)
	}

	c := cluster.New(cluster.Options{
		Topology: fabric.ClusterClos(*senders + 1), Nodes: *senders + 1, Seed: *seed,
	})
	server := 0
	var served, bytes int64
	c.Nodes[server].Ctx.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			served++
			bytes += int64(m.Len)
			m.Reply(nil, 64)
		})
	})
	if err := c.Nodes[server].Ctx.Listen(7000); err != nil {
		panic(err)
	}
	chans := c.Establish(cluster.FanInPairs(*senders+1, server), 7000)
	fmt.Printf("xr-perf: %d channels up at %v\n", len(chans), c.Eng.Now())

	sizes := workload.MiceElephants(*mice, *elephant, *elephantFrac)
	lat := sim.NewSummaryCap(1 << 16)
	record := func(r workload.Result) {
		if r.Err == nil {
			lat.AddDuration(r.Latency)
		}
	}
	var stop []func()
	for i, ch := range chans {
		switch *mode {
		case "open":
			g := workload.NewOpenLoop(ch, meanArr, sizes, *seed+uint64(i))
			g.OnResult = record
			g.Start()
			stop = append(stop, g.Stop)
		case "closed":
			g := workload.NewClosedLoop(ch, *depth, sizes, *seed+uint64(i))
			g.OnResult = record
			g.Start()
			stop = append(stop, g.Stop)
		default:
			panic("mode must be open or closed")
		}
	}
	start := c.Eng.Now()
	c.Eng.RunUntil(start.Add(horizon))
	for _, s := range stop {
		s()
	}
	c.Eng.RunFor(50 * sim.Millisecond)
	el := c.Eng.Now().Sub(start).Seconds()

	fmt.Printf("served %d requests (%.0f/s), %.2f Gbps inbound\n",
		served, float64(served)/el, float64(bytes)*8/el/1e9)
	fmt.Printf("latency µs: mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		lat.Mean(), lat.Percentile(50), lat.Percentile(95), lat.Percentile(99), lat.Max())
	var cnp int64
	for _, n := range c.Nodes {
		cnp += n.NIC.Counters.CNPRecv
	}
	fmt.Printf("congestion: ECN=%d CNP=%d PFC-pause=%d drops=%d\n",
		c.Fab.Stats.ECNMarks, cnp, c.Fab.Stats.PauseTX, c.Fab.Stats.Drops)
	fmt.Println()
	fmt.Print(xrdma.XRStat(c.Nodes[server].Ctx))
	if *prom {
		fmt.Println("\nprometheus exposition:")
		telemetry.For(c.Eng).Reg.WritePrometheus(os.Stdout)
	}
}
