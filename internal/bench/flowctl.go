package bench

import (
	"fmt"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// fig10Run drives one incast variant: bursty open-loop senders (the
// saturated/unsaturated switching of Fig. 3) feeding one victim. With flow
// control off, messages are not fragmented and the victim pulls with an
// effectively unlimited outstanding-WR budget — raw DCQCN alone absorbs
// the bursts. With flow control on, 64 KB fragments plus the tuned
// outstanding-WR limit (N=4 here: ≈256 KB in flight, several
// bandwidth-delay products) shape demand before the fabric must react.
func fig10Run(sc Scale, payload int, fc bool, mean sim.Duration, horizon sim.Duration, senders int) (gbps float64, cnps, pause int64) {
	variant := fmt.Sprintf("fig10/%dKB", payload>>10)
	if fc {
		variant += "-fc"
	}
	c := sc.cluster(variant, cluster.Options{Topology: fabric.ClusterClos(senders + 1), Nodes: senders + 1, Config: fcKnobs(fc)})
	victim := 0
	var recvBytes int64
	rate := sim.NewRate(c.Eng, 50*sim.Millisecond, &sim.Series{Name: "goodput"})
	c.Nodes[victim].Ctx.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			recvBytes += int64(m.Len)
			rate.Add(float64(m.Len))
			m.Reply(nil, 8)
		})
	})
	if err := c.Nodes[victim].Ctx.Listen(7000); err != nil {
		panic(err)
	}
	rng := sim.NewRNG(sc.Seed ^ 0xf10)
	running := true
	for _, ch := range c.Establish(cluster.FanInPairs(senders+1, victim), 7000) {
		// A violent burst (≈1 MB), then an exponential gap: the
		// synchronized spikes that overwhelm reactive DCQCN.
		bursts(c.Eng, rng, 4, 9, mean, func() bool { return running && !ch.Closed() },
			func() { ch.SendMsg(nil, payload, nil) })
	}
	start := c.Eng.Now()
	c.Eng.RunUntil(start.Add(horizon))
	running = false
	rate.Flush()
	elapsed := c.Eng.Now().Sub(start)
	gbps = float64(recvBytes) * 8 / elapsed.Seconds() / 1e9
	// CNPs received by senders = congestion signalled; pause frames from
	// the fabric.
	for i := 1; i <= senders; i++ {
		cnps += c.Nodes[i].NIC.Counters.CNPRecv
	}
	pause = c.Fab.Stats.PauseTX
	return gbps, cnps, pause
}

// fcKnobs configures the flow-control arm (on: 64 KB fragments and the
// outstanding-WR limit, N=4 here: ≈256 KB in flight) or the uncontrolled
// one (off: no fragmenting, an effectively unlimited budget) of Fig. 10
// and Fig. 12, keepalive off in both.
func fcKnobs(on bool) func(int, *xrdma.Config) {
	return func(_ int, cfg *xrdma.Config) {
		cfg.KeepaliveInterval = 0
		if on {
			cfg.MaxOutstandingWRs = 4
		} else {
			cfg.FragmentSize = 1 << 30
			cfg.MaxOutstandingWRs = 1 << 20
		}
	}
}

// Fig10FlowControl reproduces Fig. 10, the incast flow-control comparison
// (§VII-C): 64 KB payloads, 128 KB payloads, and 128 KB with X-RDMA flow
// control (fragmentation + outstanding-WR queueing).
func Fig10FlowControl(sc Scale) Result {
	horizon := 600 * sim.Millisecond
	senders := 16
	if sc.Full {
		horizon = 5 * sim.Second
		senders = 24
	}
	variants := []string{"64KB", "128KB", "128KB-fc"}
	goodput := map[string]float64{} // the victim's mean application goodput
	cnps := map[string]int64{}      // totals over the run
	pause := map[string]int64{}
	type cfg struct {
		name    string
		payload int
		fc      bool
		mean    sim.Duration
	}
	// Inter-burst means keep offered *bytes* equal across payload sizes:
	// a burst averages 8 messages, so 128 KB bursts fire half as often.
	for _, v := range []cfg{
		{"64KB", 64 << 10, false, 1600 * sim.Microsecond},
		{"128KB", 128 << 10, false, 3200 * sim.Microsecond},
		{"128KB-fc", 128 << 10, true, 3200 * sim.Microsecond},
	} {
		goodput[v.name], cnps[v.name], pause[v.name] = fig10Run(sc, v.payload, v.fc, v.mean, horizon, senders)
	}
	t := Table{ID: "E7/Fig10", Title: "incast: payload size and flow control vs congestion",
		Header: []string{"variant", "goodput(Gbps)", "CNPs", "TX-pause"}}
	for _, v := range variants {
		t.Addf(v, goodput[v], cnps[v], pause[v])
	}
	// Flow control must beat the uncontrolled 128 KB arm on goodput, cut
	// its CNPs to a small fraction, and dominate every uncontrolled arm on
	// pause frames. With no pause in those arms there is nothing to cut.
	gain := within("E7/fc-goodput-gain%", "≈24%", (goodput["128KB-fc"]-goodput["128KB"])/goodput["128KB"]*100, 1, inf)
	cnp := within("E7/fc-CNP-share%", "1–2%", float64(cnps["128KB-fc"])/float64(cnps["128KB"])*100, -inf, below(50))
	pauseC := within("E7/fc-TX-pause", "≈0", float64(pause["128KB-fc"]), 0, float64(min(pause["128KB"], pause["64KB"])/20))
	pauseC.Untested = pause["128KB"] == 0 && pause["64KB"] == 0
	t.Note("paper: fc improves bandwidth %s, CNP count → %s, TX pause → %s; measured: goodput %+.0f%%, CNPs → %.1f%%, TX pause %d (%d without fc) — see EXPERIMENTS.md",
		gain.Paper, cnp.Paper, pauseC.Paper, gain.Measured, cnp.Measured, pause["128KB-fc"], max(pause["128KB"], pause["64KB"]))
	return result(t, gain, cnp, pauseC)
}

// FragmentSweep ablates the 64 KB fragmentation choice (DESIGN.md §4): too
// small saturates the RNIC with WRs, too large reintroduces blocking.
func FragmentSweep(sc Scale) Result {
	horizon := pick(sc, 300*sim.Millisecond, 2*sim.Second)
	minGoodput := inf
	t := Table{ID: "A1/frag-sweep", Title: "fragment size ablation (128 KB incast)",
		Header: []string{"frag", "goodput(Gbps)", "CNPs"}}
	for _, kb := range []int{16, 64, 256} {
		c := sc.cluster(fmt.Sprintf("frag-sweep/%dKB", kb), cluster.Options{
			Topology: fabric.ClusterClos(9), Nodes: 9,
			Config: func(node int, cfg *xrdma.Config) {
				cfg.KeepaliveInterval = 0
				cfg.FragmentSize = kb << 10
			},
		})
		var recvBytes int64
		c.Nodes[0].Ctx.OnChannel(func(ch *xrdma.Channel) {
			ch.OnMessage(func(m *xrdma.Msg) {
				recvBytes += int64(m.Len)
				m.Reply(nil, 8)
			})
		})
		c.Nodes[0].Ctx.Listen(7000)
		chans := c.Establish(cluster.FanInPairs(9, 0), 7000)
		running := true
		for _, ch := range chans {
			for k := 0; k < 4; k++ {
				var issue func()
				issue = func() {
					if !running || ch.Closed() {
						return
					}
					ch.SendMsg(nil, 128<<10, func(m *xrdma.Msg, err error) {
						if err == nil {
							issue()
						}
					})
				}
				issue()
			}
		}
		start := c.Eng.Now()
		c.Eng.RunUntil(start.Add(horizon))
		running = false
		g := float64(recvBytes) * 8 / c.Eng.Now().Sub(start).Seconds() / 1e9
		var cn int64
		for i := 1; i < 9; i++ {
			cn += c.Nodes[i].NIC.Counters.CNPRecv
		}
		minGoodput = min(minGoodput, g)
		t.Addf(sizeLabel(kb<<10), g, cn)
	}
	return result(t, within("A1/goodput-Gbps-min", "every fragment size moves data", minGoodput, above(0), inf))
}
