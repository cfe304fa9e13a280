package bench

import (
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
)

// Fig11OnlineUpgrade reproduces Fig. 11: a serving node under steady load
// receives an "online upgrade" wave — a stream of new clients
// establishing channels (QP number climbs) — without hurting throughput;
// memory-cache occupy/in-use follow the bandwidth.
func Fig11OnlineUpgrade(sc Scale) Result {
	nodes := 10
	wave := 24
	horizon := 1200 * sim.Millisecond
	if sc.Full {
		nodes = 24
		wave = 200
		horizon = 6 * sim.Second
	}
	c := sc.cluster("fig11", cluster.Options{Topology: fabric.ClusterClos(nodes), Nodes: nodes})
	server := 0
	var r struct{ QPs, IOPS, MemOccupy, MemInUse *sim.Series }
	r.QPs, r.IOPS = &sim.Series{Name: "QPs"}, &sim.Series{Name: "IOPS"}
	r.MemOccupy, r.MemInUse = &sim.Series{Name: "occupy"}, &sim.Series{Name: "in-use"}
	rate := sim.NewRate(c.Eng, 50*sim.Millisecond, r.IOPS)
	c.Nodes[server].Ctx.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			rate.Add(1)
			m.Reply(nil, 128)
		})
	})
	c.Nodes[server].Ctx.Listen(7000)

	// Steady base load from two clients.
	var gens []*workload.ClosedLoop
	for i, ch := range c.Establish([][2]int{{1, server}, {2, server}}, 7000) {
		g := workload.NewClosedLoop(ch, 8, workload.Fixed(16<<10), sc.Seed+uint64(i))
		g.Start()
		gens = append(gens, g)
	}

	// Sampler.
	var sample func()
	sample = func() {
		now := c.Eng.Now()
		r.QPs.Append(now, float64(c.Nodes[server].NIC.NumQPs()))
		r.MemOccupy.Append(now, float64(c.Nodes[server].Ctx.Mem.OccupiedBytes()))
		r.MemInUse.Append(now, float64(c.Nodes[server].Ctx.Mem.InUseBytes))
		if now < sim.Time(horizon) {
			c.Eng.AfterBg(20*sim.Millisecond, sample)
		}
	}
	sample()

	// Upgrade wave: from t=horizon/3, new clients connect steadily, run
	// briefly, and stay connected.
	third := horizon / 3
	c.Eng.AfterBg(third, func() {
		interval := (horizon / 3) / sim.Duration(wave)
		for i := 0; i < wave; i++ {
			i := i
			c.Eng.AfterBg(sim.Duration(i)*interval, func() {
				from := 3 + i%(nodes-3)
				c.Connect(from, server, 7000, func(ch *xrdma.Channel, err error) {
					if err != nil {
						return
					}
					g := workload.NewClosedLoop(ch, 2, workload.Fixed(4<<10), sc.Seed+uint64(100+i))
					g.Start()
					gens = append(gens, g)
				})
			})
		}
	})

	c.Eng.RunUntil(sim.Time(horizon))
	for _, g := range gens {
		g.Stop()
	}
	rate.Flush()

	// IOPS before vs during the wave (per-50ms buckets → per-second).
	buckets := r.IOPS.Values
	n := len(buckets)
	pre := buckets[n/6 : n/3]
	during := buckets[n/2 : 5*n/6]
	before, dur := meanOf(pre)*20, meanOf(during)*20
	// The QP count ramps, the wave costs the base load under 10 % of its
	// IOPS, and in-use memory never exceeds what the cache occupies.
	ramped := within("E9/QPs-after", "ramped", r.QPs.Values[r.QPs.Len()-1], above(r.QPs.Values[1]), inf)
	unharmed := within("E9/IOPS-during-wave", "unharmed (no jitter)", dur, before*0.9, inf)
	inUse := within("E9/mem-in-use-MB", "≤ occupy", r.MemInUse.Max()/1e6, -inf, r.MemOccupy.Max()/1e6)
	t := Table{ID: "E9/Fig11", Title: "online upgrade: QP ramp vs throughput and memory cache",
		Header: []string{"metric", "measured", "paper"}}
	t.Addf("QPs before", r.QPs.Values[1], "steady")
	t.Addf("QPs after", r.QPs.Values[r.QPs.Len()-1], ramped.Paper)
	t.Addf("IOPS before wave", before, "unharmed")
	t.Addf("IOPS during wave", dur, unharmed.Paper)
	t.Addf("mem occupy (MB)", r.MemOccupy.Max()/1e6, "tracks bandwidth")
	t.Addf("mem in-use (MB)", r.MemInUse.Max()/1e6, inUse.Paper)
	return result(t, ramped, unharmed, inUse)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// fig12Run reproduces the Fig. 12 situation: a serving node carries
// latency-sensitive small I/O (plotted) when a bulk-write wave arrives
// and bandwidth steps by several ×. Each client keeps a latency channel
// (small requests, closed loop) separate from its data channel (bursty
// large writes) — the usual production split. With the anti-jitter
// machinery (fragmentation + outstanding-WR queueing complementing
// DCQCN), the step must not move small-I/O latency; without it the pause
// storms of Fig. 10 bleed into every flow sharing the fabric.
func fig12Run(sc Scale, app string, sizes workload.SizeDist, payload int, antiJitter bool) (base, burst, p99 float64, ratio float64) {
	senders := 16
	phase := 300 * sim.Millisecond
	if sc.Full {
		senders = 24
		phase = 2 * sim.Second
	}
	label := "fig12/" + app + "/anti-jitter-off"
	if antiJitter {
		label = "fig12/" + app + "/anti-jitter-on"
	}
	c := sc.cluster(label, cluster.Options{Topology: fabric.ClusterClos(senders + 1), Nodes: senders + 1, Config: fcKnobs(antiJitter)})
	server := 0
	var miceBytes, bulkBytes int64
	inBurst := false
	c.Nodes[server].Ctx.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			if inBurst {
				if m.Len > 4096 {
					bulkBytes += int64(m.Len)
				} else {
					miceBytes += int64(m.Len)
				}
			}
			m.Reply(nil, 64)
		})
	})
	c.Nodes[server].Ctx.Listen(7000)
	// Two channels per sender: [0..senders) latency, [senders..) data.
	pairs := append(cluster.FanInPairs(senders+1, server), cluster.FanInPairs(senders+1, server)...)
	chans := c.Establish(pairs, 7000)
	latChans, dataChans := chans[:senders], chans[senders:]

	// Pre-size for a full phase of closed-loop mice so recording stays
	// allocation-free on the measurement path.
	baseLat := sim.NewSummaryCap(1 << 15)
	burstLat := sim.NewSummaryCap(1 << 15)
	var mice []*workload.ClosedLoop
	for i, ch := range latChans {
		g := workload.NewClosedLoop(ch, 1, sizes, sc.Seed+uint64(i))
		g.OnResult = func(res workload.Result) {
			if res.Err != nil {
				return
			}
			if inBurst {
				burstLat.AddDuration(res.Latency)
			} else {
				baseLat.AddDuration(res.Latency)
			}
		}
		g.Start()
		mice = append(mice, g)
	}
	c.Eng.RunFor(phase)

	// Bulk wave: bursty open-loop large writes (the dotted-box step).
	inBurst = true
	rng := sim.NewRNG(sc.Seed ^ 0xf12)
	running := true
	for _, ch := range dataChans {
		// Sized to ≈60% of the victim link: the paper's burst is a
		// large but absorbable step, not an overload.
		bursts(c.Eng, rng, 2, 5, 4*sim.Millisecond, func() bool { return running && !ch.Closed() },
			func() { ch.SendMsg(nil, payload, nil) })
	}
	c.Eng.RunFor(phase)
	running = false
	for _, g := range mice {
		g.Stop()
	}
	c.Eng.RunFor(50 * sim.Millisecond)

	// The "bandwidth step": total served bytes during the wave relative
	// to the latency traffic alone.
	ratio = float64(miceBytes+bulkBytes) / float64(miceBytes+1)
	return baseLat.Mean(), burstLat.Mean(), burstLat.Percentile(99), ratio
}

// Fig12AntiJitter reproduces Fig. 12 for ESSD-like and X-DB-like traffic:
// with the anti-jitter strategies the latency has "no significant
// increment" through a ≈300% throughput step; without them it balloons.
// Latency is in µs, before and during the burst, with X-RDMA's
// anti-jitter machinery on vs off.
func Fig12AntiJitter(sc Scale, app string) Result {
	// Latency-side request mix and bulk payload by application.
	var sizes workload.SizeDist
	payload := 128 << 10
	if app == "ESSD" {
		sizes = workload.Fixed(4 << 10)
	} else {
		sizes = workload.Fixed(512)
		payload = 256 << 10 // bulk scan results
	}
	baseOn, burstOn, p99On, step := fig12Run(sc, app, sizes, payload, true)
	baseOff, burstOff, p99Off, _ := fig12Run(sc, app, sizes, payload, false)
	t := Table{ID: "E10/Fig12-" + app, Title: app + " anti-jitter under a ≈300% load step",
		Header: []string{"variant", "base mice lat(µs)", "burst mice lat(µs)", "burst mice p99(µs)", "burst/base"}}
	t.Addf("anti-jitter ON", baseOn, burstOn, p99On, burstOn/baseOn)
	t.Addf("anti-jitter OFF", baseOff, burstOff, p99Off, burstOff/baseOff)
	t.Addf("bandwidth step ×", step, "", "", "")
	t.Note("paper: throughput steps ≈300%% with no significant latency increment when protocol extension + resource management are active")
	// The step is big enough to call a burst, and anti-jitter keeps the
	// mice's tail under half of what it is without.
	id := "E10/" + app + "/"
	return result(t,
		within(id+"bandwidth-step×", "steps ≈300%", step, 2, inf),
		within(id+"p99-on-µs", "no significant increment", p99On, -inf, below(p99Off)),
		within(id+"p99-off-µs", "balloons", p99Off, 2*p99On, inf))
}

// PeakStress drives a full-mesh cluster at maximum closed-loop smalls and
// verifies zero exceptions — the §VII "35.78 M requests/s, no exception"
// claim at simulation scale (E15, the scaled shopping-spree stress test).
func PeakStress(sc Scale) Result {
	nodes := 8
	horizon := 300 * sim.Millisecond
	depth := 16
	if sc.Full {
		nodes = 16
		horizon = 2 * sim.Second
		depth = 32
	}
	c := sc.cluster("peak", cluster.Options{Topology: fabric.ClusterClos(nodes), Nodes: nodes})
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 64) })
	})
	chans := c.Establish(cluster.FullMeshPairs(nodes), 7000)
	var r struct{ Errors, RNRs, Broken int64 }
	var done int64
	var errs int64
	var gens []*workload.ClosedLoop
	for i, ch := range chans {
		g := workload.NewClosedLoop(ch, depth, workload.Fixed(256), sc.Seed+uint64(i))
		g.OnResult = func(res workload.Result) {
			if res.Err != nil {
				errs++
			} else {
				done++
			}
		}
		g.Start()
		gens = append(gens, g)
	}
	start := c.Eng.Now()
	c.Eng.RunUntil(start.Add(horizon))
	for _, g := range gens {
		g.Stop()
	}
	el := c.Eng.Now().Sub(start).Seconds()
	ops := float64(done) / el
	r.Errors = errs
	for _, n := range c.Nodes {
		r.RNRs += n.NIC.Counters.RNRNakSent
		r.Broken += n.Ctx.Stats.ChannelsBroken
	}
	opsC := within("E15/aggregate-ops/s", "35.78M (4000 servers)", ops, 1e6, inf)
	clean := []Claim{
		within("E15/errors", "0", float64(r.Errors), 0, 0),
		within("E15/RNR-NAKs", "0", float64(r.RNRs), 0, 0),
		within("E15/broken-channels", "0", float64(r.Broken), 0, 0),
	}
	t := Table{ID: "E15/§VII", Title: "peak stress, full mesh closed-loop smalls",
		Header: []string{"metric", "measured", "paper"}}
	t.Addf("aggregate ops/s", ops, opsC.Paper)
	t.Addf("errors", r.Errors, clean[0].Paper)
	t.Addf("RNR NAKs", r.RNRs, clean[1].Paper)
	t.Addf("broken channels", r.Broken, clean[2].Paper)
	return result(t, append(clean, opsC)...)
}

// Fig3Diurnal generates the switching saturated/unsaturated load of the
// PolarDB monitoring plot (a context figure): an open-loop generator whose
// rate follows a two-level day/night pattern.
func Fig3Diurnal(sc Scale) Result {
	c := sc.cluster("fig3", cluster.Options{Topology: fabric.SmallClos(), Nodes: 2})
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 64) })
	})
	cli := c.Establish([][2]int{{0, 1}}, 7000)[0]
	bandwidth := &sim.Series{Name: "Gbps"}
	var bytes int64
	g := workload.NewOpenLoop(cli, 500*sim.Microsecond, workload.MiceElephants(4<<10, 64<<10, 0.3), sc.Seed)
	g.OnResult = func(res workload.Result) {
		if res.Err == nil {
			bytes += int64(res.Size)
		}
	}
	g.Start()
	// 8 "hours" of 100 ms each, alternating saturated/unsaturated.
	for h := 0; h < 8; h++ {
		if h%2 == 0 {
			g.SetMean(80 * sim.Microsecond) // saturated
		} else {
			g.SetMean(2 * sim.Millisecond) // quiet
		}
		before := bytes
		c.Eng.RunFor(100 * sim.Millisecond)
		gbps := float64(bytes-before) * 8 / 0.1 / 1e9
		bandwidth.Append(c.Eng.Now(), gbps)
	}
	g.Stop()
	peak, trough := bandwidth.Max(), bandwidth.Min()
	t := Table{ID: "E17/Fig3", Title: "diurnal saturated/unsaturated traffic pattern",
		Header: []string{"metric", "measured"}}
	t.Addf("peak (Gbps)", peak)
	t.Addf("trough (Gbps)", trough)
	t.Addf("peak/trough", peak/(trough+1e-9))
	return result(t, within("E17/peak-Gbps", "saturated vs unsaturated", peak, 5*trough, inf))
}
