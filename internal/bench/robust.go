package bench

import (
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/verbs"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
)

// Establishment reproduces §VII-C "Establishment Time": single-connection
// cold vs QP-cache establishment and the mass-establishment storm (paper:
// 3946 µs → 2451 µs, −38%; 4096 connections ≈10 s with rdma_cm vs ≈3 s
// with X-RDMA).
func Establishment(sc Scale) Result {
	var r struct {
		ColdUS, WarmUS float64 // single connection, without/with QP cache
		SavingPct      float64
		MassConns      int
		MassColdSec    float64 // rdma_cm-style (no cache)
		MassWarmSec    float64 // with warmed QP cache
		TCPEstablishUS float64
	}

	// Single connection, cold then warm.
	{
		c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: 2, Seed: sc.Seed})
		sc.observe(c.Eng, "establish/single")
		c.ListenAll(7000, nil)
		var ch *xrdma.Channel
		t0 := c.Eng.Now()
		c.Connect(0, 1, 7000, func(cch *xrdma.Channel, err error) {
			if err != nil {
				panic(err)
			}
			ch = cch
		})
		c.Eng.Run()
		r.ColdUS = c.Eng.Now().Sub(t0).Micros()
		ch.Close()
		c.Eng.Run()
		t1 := c.Eng.Now()
		c.Connect(0, 1, 7000, func(cch *xrdma.Channel, err error) {
			if err != nil {
				panic(err)
			}
		})
		c.Eng.Run()
		r.WarmUS = c.Eng.Now().Sub(t1).Micros()
		r.SavingPct = (r.ColdUS - r.WarmUS) / r.ColdUS * 100
	}

	// Mass establishment storm: N connections from a pool of clients to a
	// pool of servers, cold (rdma_cm path) vs warmed QP caches.
	conns := pick(sc, 128, 4096)
	r.MassConns = conns
	massRun := func(prewarm bool) float64 {
		c := cluster.New(cluster.Options{Topology: fabric.ClusterClos(16), Nodes: 16, Seed: sc.Seed})
		if prewarm {
			sc.observe(c.Eng, "establish/mass-warm")
		} else {
			sc.observe(c.Eng, "establish/mass-cold")
		}
		c.ListenAll(7000, nil)
		if prewarm {
			// Fill QP caches — on both ends — by opening and closing a
			// first wave, so the measured storm runs entirely on
			// recycled QPs: production steady-state after a restart.
			var wave []*xrdma.Channel
			pairs := make([][2]int, conns)
			for i := range pairs {
				pairs[i] = [2]int{i % 8, 8 + i%8}
			}
			c.ConnectPairs(pairs, 7000, func(chs []*xrdma.Channel) { wave = chs })
			c.Eng.Run()
			for _, ch := range wave {
				ch.Close()
			}
			for _, n := range c.Nodes {
				for _, ch := range n.Ctx.Channels() {
					ch.Close()
				}
			}
			c.Eng.Run()
		}
		pairs := make([][2]int, conns)
		for i := range pairs {
			pairs[i] = [2]int{i % 8, 8 + i%8}
		}
		t0 := c.Eng.Now()
		done := false
		c.ConnectPairs(pairs, 7000, func([]*xrdma.Channel) { done = true })
		c.Eng.Run()
		if !done {
			panic("bench: mass establishment incomplete")
		}
		return c.Eng.Now().Sub(t0).Seconds()
	}
	r.MassColdSec = massRun(false)
	r.MassWarmSec = massRun(true)

	// TCP comparison point (§III Issue 3: ~100 µs).
	{
		eng := sim.NewEngine()
		sc.observe(eng, "establish/tcp")
		fab := fabric.New(eng, fabric.DefaultConfig(), sc.Seed)
		fabric.BuildClos(fab, fabric.SmallClos())
		a := tcpnet.New(eng, fab.Host(0))
		b := tcpnet.New(eng, fab.Host(1))
		b.Listen(80, func(*tcpnet.Conn) {})
		t0 := eng.Now()
		established := false
		a.Dial(fab.Host(1).ID, 80, func(_ *tcpnet.Conn, err error) {
			if err != nil {
				panic(err)
			}
			established = true
		})
		eng.Run()
		if !established {
			panic("bench: tcp dial failed")
		}
		r.TCPEstablishUS = sim.Duration(eng.Now() - t0).Micros()
	}

	// The QP cache speeds one connection and the storm; TCP is orders of
	// magnitude faster to establish (§III Issue 3).
	warm := within("E8/single-QP-cache-µs", "2451", r.WarmUS, -inf, below(r.ColdUS))
	saving := within("E8/saving%", "38", r.SavingPct, 25, 55)
	massWarm := within("E8/mass-QP-cache-s", "~3", r.MassWarmSec, -inf, below(r.MassColdSec))
	tcp := within("E8/tcp-single-µs", "~100", r.TCPEstablishUS, -inf, r.ColdUS/10)
	t := Table{ID: "E8/§VII-C", Title: "connection establishment",
		Header: []string{"metric", "measured", "paper"}}
	t.Addf("single cold (µs)", r.ColdUS, "3946")
	t.Addf("single QP-cache (µs)", r.WarmUS, warm.Paper)
	t.Addf("saving (%)", r.SavingPct, saving.Paper)
	t.Addf("mass conns", r.MassConns, "4096")
	t.Addf("mass cold (s)", r.MassColdSec, "~10")
	t.Addf("mass QP-cache (s)", r.MassWarmSec, massWarm.Paper)
	t.Addf("tcp single (µs)", r.TCPEstablishUS, tcp.Paper)
	return result(t, warm, saving, massWarm,
		within("E8/mass-cold÷QP-cache", "≈3.3×", r.MassColdSec/r.MassWarmSec, 1.5, inf), tcp)
}

// Fig8EssdRamp reproduces Fig. 8: an ESSD cluster (128 KB payloads) cold
// starts — every channel establishes, then closed-loop writes ramp to
// steady state. The paper reports reaching ≈6 K IOPS within 2 s.
func Fig8EssdRamp(sc Scale) Result {
	nodes, blocks, chunks := 12, []int{0, 1, 2, 3}, []int{4, 5, 6, 7, 8, 9, 10, 11}
	horizon := 1500 * sim.Millisecond
	depth := 4
	if sc.Full {
		nodes = 48
		blocks = blocks[:0]
		chunks = chunks[:0]
		for i := 0; i < 16; i++ {
			blocks = append(blocks, i)
		}
		for i := 16; i < 48; i++ {
			chunks = append(chunks, i)
		}
		horizon = 10 * sim.Second
		depth = 16
	}
	c := cluster.New(cluster.Options{Topology: fabric.ClusterClos(nodes), Nodes: nodes, Seed: sc.Seed})
	sc.observe(c.Eng, "fig8")
	iops := &sim.Series{Name: "IOPS"} // per 100 ms bucket
	rate := sim.NewRate(c.Eng, 100*sim.Millisecond, iops)

	p := workload.NewPangu(c, blocks, chunks, 3)
	e := workload.NewESSD(p, 128<<10, depth)
	// The workload starts the moment the mesh is up — the ramp includes
	// establishment, exactly what Fig. 8 plots.
	poll := func() {}
	poll = func() {
		if p.Ready() {
			e.Start(func(int, sim.Duration) { rate.Add(1) })
			return
		}
		c.Eng.After(10*sim.Millisecond, poll)
	}
	poll()
	c.Eng.RunUntil(sim.Time(horizon))
	e.Stop()
	rate.Flush()

	steady := iops.Tail(0.25) * 10 // per-100ms → per-second
	var ramp float64               // seconds to reach 90% of steady state
	for i, v := range iops.Values {
		if v*10 >= 0.9*steady {
			ramp = sim.Duration(iops.Times[i]).Seconds() + 0.1
			break
		}
	}
	steadyC := within("E5/steady-IOPS", "~6000", steady, above(0), inf)
	rampC := within("E5/ramp-to-90%-s", "<2", ramp, above(0), 2)
	t := Table{ID: "E5/Fig8", Title: "ESSD aggregate IOPS ramp (128 KB writes)",
		Header: []string{"metric", "measured", "paper"}}
	t.Addf("steady IOPS", steady, steadyC.Paper)
	t.Addf("ramp to 90% (s)", ramp, rampC.Paper)
	t.Note("per-100ms buckets: first=%v last=%v", iops.Values[0], iops.Values[iops.Len()-1])
	// Sustained until the end: no collapse (the final bucket is a partial flush).
	lastReal := iops.Values[iops.Len()-2] * 10
	return result(t, steadyC, rampC, within("E5/last-IOPS", "sustained", lastReal, steady*0.5, inf))
}

// Fig9RNRCounter reproduces Fig. 9: bursty Pangu-style traffic into
// receivers. Raw RDMA (no application-layer window, shallow receive
// queues) produces a steady trickle of RNR NAKs (paper: 0.91 average);
// X-RDMA's seq-ack window keeps the counter at exactly zero.
func Fig9RNRCounter(sc Scale) Result {
	horizon := pick(sc, 1*sim.Second, 10*sim.Second)
	var r struct{ RawRNRPerSec, XRDMARNRPerSec float64 }
	rawSeries := &sim.Series{Name: "raw RNR"}

	// Raw RDMA: sender posts bursts straight to the QP; receiver keeps a
	// shallow RQ and reposts with application-side delay (it is busy —
	// the realistic condition the paper describes).
	{
		eng := sim.NewEngine()
		sc.observe(eng, "fig9/raw")
		fab := fabric.New(eng, fabric.DefaultConfig(), sc.Seed)
		fabric.BuildClos(fab, fabric.SmallClos())
		cfg := rnic.DefaultConfig()
		a := rnic.New(eng, fab.Host(0), cfg)
		b := rnic.New(eng, fab.Host(5), cfg)
		qa, qb := rnic.ConnectLoopback(a, b, 512)
		const rq = 16
		for i := 0; i < rq; i++ {
			qb.PostRecv(rnic.RecvWR{ID: uint64(i), Len: 8 << 10})
		}
		// Receiver reposts each consumed buffer after application
		// processing time.
		qb.RecvCQ.OnCompletion(func() {})
		repost := func() {
			for _, cqe := range qb.RecvCQ.Poll(64) {
				cqe := cqe
				eng.After(12*sim.Microsecond, func() {
					qb.PostRecv(rnic.RecvWR{ID: cqe.WRID, Len: 8 << 10})
				})
			}
		}
		qb.RecvCQ.OnCompletion(repost)
		rng := sim.NewRNG(sc.Seed)
		rate := sim.NewRate(eng, 100*sim.Millisecond, rawSeries)
		var lastRNR int64
		var burst func()
		burst = func() {
			if eng.Now() >= sim.Time(horizon) {
				return
			}
			// Burst of writes then sends — bursts overrun the RQ.
			n := 8 + rng.Intn(24)
			for i := 0; i < n; i++ {
				qa.PostSend(&rnic.SendWR{Op: rnic.OpSend, Len: 2048, Unsignaled: true})
			}
			if d := a.Counters.RNRNakRecv - lastRNR; d > 0 {
				rate.Add(float64(d))
				lastRNR = a.Counters.RNRNakRecv
			}
			eng.AfterBg(rng.Exp(500*sim.Microsecond), burst)
		}
		burst()
		eng.RunUntil(sim.Time(horizon))
		rate.Flush()
		r.RawRNRPerSec = float64(a.Counters.RNRNakRecv) / sim.Duration(horizon).Seconds()
	}

	// X-RDMA: same offered burst pattern through channels.
	{
		c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: 6, Seed: sc.Seed})
		sc.observe(c.Eng, "fig9/xrdma")
		c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
			ch.OnMessage(func(m *xrdma.Msg) {
				// Application processing delay, like the raw case.
				c.Eng.After(12*sim.Microsecond, func() { m.Reply(nil, 8) })
			})
		})
		var cli *xrdma.Channel
		c.Connect(0, 5, 7000, func(ch *xrdma.Channel, err error) { cli = ch })
		c.Eng.Run()
		rng := sim.NewRNG(sc.Seed)
		var burst func()
		burst = func() {
			if c.Eng.Now() >= sim.Time(horizon) {
				return
			}
			n := 8 + rng.Intn(24)
			for i := 0; i < n; i++ {
				cli.SendMsg(nil, 2048, nil)
			}
			c.Eng.AfterBg(rng.Exp(500*sim.Microsecond), burst)
		}
		burst()
		c.Eng.RunUntil(sim.Time(horizon))
		r.XRDMARNRPerSec = float64(c.Nodes[0].NIC.Counters.RNRNakRecv) / sim.Duration(horizon).Seconds()
	}

	// Raw RDMA must RNR under the bursts (else the pressure is too low to
	// compare), and X-RDMA never.
	raw := within("E6/raw-RNR/s", "0.91 avg, spiky", r.RawRNRPerSec, above(0), inf)
	xr := within("E6/X-RDMA-RNR/s", "0 (RNR-free)", r.XRDMARNRPerSec, 0, 0)
	t := Table{ID: "E6/Fig9", Title: "RNR NAK rate under bursty traffic",
		Header: []string{"stack", "RNR/s", "paper"}}
	t.Addf("raw RDMA", r.RawRNRPerSec, raw.Paper)
	t.Addf("X-RDMA", r.XRDMARNRPerSec, xr.Paper)
	return result(t, raw, xr)
}

var _ = verbs.ResolveCost // establishment cost constants live in verbs
