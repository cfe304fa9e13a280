// faultdrill: the analysis framework in action (§VI). The drill walks the
// bug classes of Table II: inject drops with the Filter and watch the
// reliability layer absorb them, crash a peer and watch keepalive reclaim
// the connection, break the RDMA plane with Mock enabled and watch the
// channel fall back to TCP, read the slow-poll log after the application
// hogs its thread, and brown out a spine path to watch the path doctor
// walk the verdict ladder, re-path via an ECMP flow-label rotation, and
// cover a withheld response with a budgeted request retry. Later drills
// overload a shared mux QP with a bulk elephant tenant and watch the
// isolation plane hold the mouse tenant's tail, reject budget overruns
// loudly, shed a late attach into the admission FIFO, and recover
// everything once the flood stops; a hot upgrade rolls both ends of a
// live channel v1→v2 — drain, handoff blob, restart, rehydrate, tail
// replay — without losing or duplicating a message; and the closing
// drill hands a gray access optic to the fleet diagnoser, which opens a
// gray-link incident against the sick host, escalates as the evidence
// concentrates, and closes it once the optic is replaced.
package main

import (
	"encoding/binary"
	"fmt"
	"sort"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
	"xrdma/internal/xrmon"
)

func main() {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		Nodes:    4,
		MockPort: 9000,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 10 * sim.Millisecond
			cfg.MockEnabled = true
			cfg.PollingWarnCycle = 20 * sim.Microsecond
		},
	})
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), 0) })
	})

	// ---- drill 1: Filter drops (bugs hard to reproduce → filter) -------
	var ch01 *xrdma.Channel
	c.Connect(0, 1, 7000, func(ch *xrdma.Channel, err error) { ch01 = ch })
	c.Eng.Run()
	must(c.Nodes[0].Ctx.SetFlag("filter_drop_rate", "0.15"))
	ok := 0
	for i := 0; i < 50; i++ {
		ch01.SendMsg([]byte("under fire"), 0, func(m *xrdma.Msg, err error) {
			if err == nil {
				ok++
			}
		})
	}
	c.Eng.RunFor(2 * sim.Second)
	must(c.Nodes[0].Ctx.SetFlag("filter_drop_rate", "0"))
	fmt.Printf("drill 1 (filter): %d/50 completed under 15%% drops, %d retransmissions\n",
		ok, c.Nodes[0].NIC.Counters.Retransmits)

	// ---- drill 2: crash + keepalive reclaim (broken network) -----------
	var ch02 *xrdma.Channel
	c.Connect(0, 2, 7000, func(ch *xrdma.Channel, err error) { ch02 = ch })
	c.Eng.Run()
	reclaimed := false
	// Disable the mock for this channel's failure by crashing TCP too.
	c.Nodes[2].TCP.Crash()
	ch02.OnClose(func(err error) { reclaimed = true; fmt.Printf("drill 2 (keepalive): reclaimed: %v\n", err) })
	c.Nodes[2].NIC.Crash()
	// Reclaim = keepalive deadline (one RC retry horizon) + the bounded
	// mock dial retries against the dead TCP stack before giving up.
	c.Eng.RunFor(600 * sim.Millisecond)
	if !reclaimed {
		panic("keepalive failed to reclaim dead peer")
	}
	fmt.Printf("drill 2: QP recycled into cache (size %d), probes=%d\n",
		c.Nodes[0].Ctx.QPs.Len(), c.Nodes[0].Ctx.Stats.KeepaliveProbes)

	// ---- drill 3: Mock fallback to TCP ---------------------------------
	var ch03 *xrdma.Channel
	c.Connect(0, 3, 7000, func(ch *xrdma.Channel, err error) { ch03 = ch })
	c.Eng.Run()
	c.Nodes[3].NIC.Crash() // RDMA plane dies, TCP stack survives
	c.Eng.RunFor(50 * sim.Millisecond)
	c.Nodes[3].NIC.Revive()
	c.Eng.RunFor(250 * sim.Millisecond)
	fmt.Printf("drill 3 (mock): channel mocked=%v closed=%v\n", ch03.Mocked(), ch03.Closed())
	got := false
	ch03.SendMsg([]byte("over tcp now"), 0, func(m *xrdma.Msg, err error) { got = err == nil })
	c.Eng.RunFor(100 * sim.Millisecond)
	fmt.Printf("drill 3: request over TCP fallback ok=%v (switches=%d)\n",
		got, c.Nodes[0].Ctx.Stats.MockSwitches)

	// ---- drill 4: slow-poll detection (jitter → tracing) ---------------
	c.Nodes[0].Ctx.InjectWork(500 * sim.Microsecond) // the allocator-lock stall of §VII-D
	ch01.SendMsg([]byte("after stall"), 0, nil)
	c.Eng.RunFor(10 * sim.Millisecond)
	slow := 0
	for _, e := range c.Nodes[0].Ctx.Log() {
		if len(e.Text) >= 9 && e.Text[:9] == "slow poll" {
			slow++
		}
	}
	fmt.Printf("drill 4 (tracing): %d slow-poll incidents in the self-adaptive log\n", slow)

	// ---- drill 5: chaos scheduler + health state machine ---------------
	// A fresh cluster with the recovery plane armed (RecoverPort) and a
	// short RC retry horizon, driven by the deterministic fault
	// scheduler: a pulled cable degrades the channel and recovery brings
	// it back to RDMA; a dead HCA exhausts the retry budget and lands on
	// the Mock fallback; the rebooted HCA is reclaimed by failback.
	nicCfg := rnic.DefaultConfig()
	nicCfg.RetransTimeout = 2 * sim.Millisecond
	nicCfg.RetryLimit = 3
	c5 := cluster.New(cluster.Options{
		Topology:    fabric.SmallClos(),
		NICCfg:      nicCfg,
		Nodes:       8,
		MockPort:    9000,
		RecoverPort: 9100,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.MockEnabled = true
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 8 * sim.Millisecond
		},
	})
	c5.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), 0) })
	})
	var ch05 *xrdma.Channel
	c5.Connect(0, 4, 7000, func(ch *xrdma.Channel, err error) { ch05 = ch })
	c5.Eng.Run()
	ch05.OnHealthChange(func(h xrdma.HealthState) {
		fmt.Printf("drill 5 (chaos): t=%v channel -> %v\n", c5.Eng.Now(), h)
	})
	inj := chaos.New(c5)
	inj.Schedule([]chaos.Step{
		{At: 10 * sim.Millisecond, Name: "cable out", Do: func(i *chaos.Injector) { i.HostLinkDown(4) }},
		{At: 60 * sim.Millisecond, Name: "cable in", Do: func(i *chaos.Injector) { i.HostLinkUp(4) }},
		{At: 200 * sim.Millisecond, Name: "HCA dies", Do: func(i *chaos.Injector) { i.NicCrash(4) }},
		{At: 500 * sim.Millisecond, Name: "HCA swapped", Do: func(i *chaos.Injector) { i.NodeRestart(4) }},
	})
	c5.Eng.RunFor(800 * sim.Millisecond)
	fmt.Printf("drill 5: final health=%v mocked=%v (degraded=%d recoveries=%d mock-switches=%d failbacks=%d)\n",
		ch05.Health(), ch05.Mocked(),
		c5.Nodes[0].Ctx.Stats.Degraded, c5.Nodes[0].Ctx.Stats.Recoveries,
		c5.Nodes[0].Ctx.Stats.MockSwitches, c5.Nodes[0].Ctx.Stats.Failbacks)
	fmt.Println("drill 5 fault timeline:")
	for _, line := range inj.Digest() {
		fmt.Println("  " + line)
	}

	// ---- drill 6: gray failure — path doctor + budgeted retries --------
	// A brownout (loss + corruption + added latency, the link is up the
	// whole time) degrades the spine path the channel rides. The doctor
	// walks Clean → Suspect → Sick, rotates the QP flow label so ECMP
	// steers onto the other leaf, and the verdict returns to Clean — no
	// QP teardown, no recovery plane involved. Then the server withholds
	// one response past the request timeout and a budgeted retry covers
	// it, with receiver-side dedup keeping delivery exactly-once.
	nic6 := rnic.DefaultConfig()
	nic6.RetransTimeout = 1 * sim.Millisecond
	nic6.RetryLimit = 12 // deep horizon: the brownout must stay gray
	c6 := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic6,
		Nodes:    8,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.StatsInterval = 1 * sim.Millisecond // doctor scan cadence
			cfg.PathRehashCooldown = 4 * sim.Millisecond
			cfg.RequestTimeout = 10 * sim.Millisecond
			cfg.RequestRetries = 2
			cfg.RetryBackoff = 1 * sim.Millisecond
		},
	})
	withhold := false
	handled := 0
	c6.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			handled++
			if withhold {
				withhold = false
				data := m.Retain()
				mm := m
				c6.Eng.After(15*sim.Millisecond, func() { mm.Reply(data, 0) })
				return
			}
			m.Reply(m.Retain(), 0)
		})
	})
	var ch06 *xrdma.Channel
	c6.Connect(0, 4, 7000, func(ch *xrdma.Channel, err error) { ch06 = ch })
	c6.Eng.Run()
	ch06.OnPathVerdict(func(v xrdma.PathVerdict) {
		fmt.Printf("drill 6 (gray): t=%v path -> %v (rehashes=%d)\n",
			c6.Eng.Now(), v, ch06.Rehashes())
	})
	inj6 := chaos.New(c6)
	leaf := fmt.Sprintf("pod0-leaf%d", fabric.ECMPIndex(ch06.FlowHash(), 2))
	resps, errs := 0, 0
	stop := false
	var tick func()
	tick = func() {
		if stop {
			return
		}
		ch06.SendMsg([]byte("gray load"), 0, func(m *xrdma.Msg, err error) {
			if err == nil {
				resps++
			} else {
				errs++
			}
		})
		c6.Eng.AfterBg(500*sim.Microsecond, tick)
	}
	c6.Eng.AfterBg(500*sim.Microsecond, tick)
	c6.Eng.AfterBg(20*sim.Millisecond, func() {
		inj6.Brownout("pod0-tor0", leaf, 0.12, 0.05, 20*sim.Microsecond)
	})
	c6.Eng.RunFor(150 * sim.Millisecond)
	stop = true
	c6.Eng.RunFor(50 * sim.Millisecond)
	inj6.ClearBrownout("pod0-tor0", leaf)
	fmt.Printf("drill 6: %d/%d responses under brownout (%d timed out), rehashes=%d retries=%d\n",
		resps, resps+errs, errs, ch06.Rehashes(), ch06.Counters.ReqRetries)
	for _, line := range ch06.PathLog() {
		fmt.Println("  " + line)
	}

	// Now the retry: one response is withheld past the request timeout;
	// the budgeted retry is deduplicated at the receiver (the handler
	// must not run again) and the late reply satisfies the request.
	withhold = true
	base := handled
	baseRetries := ch06.Counters.ReqRetries
	got6, errs6 := 0, 0
	ch06.SendMsg([]byte("withheld"), 0, func(m *xrdma.Msg, err error) {
		if err == nil {
			got6++
		} else {
			errs6++
		}
	})
	c6.Eng.RunFor(50 * sim.Millisecond)
	fmt.Printf("drill 6: withheld response — handler ran %d time(s), retries=%d, responses=%d errors=%d\n",
		handled-base, ch06.Counters.ReqRetries-baseRetries, got6, errs6)

	// ---- drill 7: shared-QP mux — one fault, one fix, N channels -------
	// Six channels to the same peer multiplexed over a single shared QP
	// (QPsPerPeer=1). The QP is the failure domain: a link flap degrades
	// and recovers all six channels through ONE re-establishment, and a
	// gray brownout is cured by ONE flow-label rotation — never once per
	// channel.
	nic7 := rnic.DefaultConfig()
	nic7.RetransTimeout = 1 * sim.Millisecond
	nic7.RetryLimit = 12
	c7 := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic7,
		Nodes:    8,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.QPsPerPeer = 1
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 8 * sim.Millisecond
			cfg.StatsInterval = 1 * sim.Millisecond
			cfg.PathRehashCooldown = 4 * sim.Millisecond
		},
	})
	c7.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), 0) })
	})
	var chans7 []*xrdma.Channel
	for i := 0; i < 6; i++ {
		c7.Connect(0, 4, 7000, func(ch *xrdma.Channel, err error) {
			if err != nil {
				panic(err)
			}
			chans7 = append(chans7, ch)
		})
	}
	c7.Eng.Run()
	ctx7 := c7.Nodes[0].Ctx
	fmt.Printf("drill 7 (mux): %d channels attached over %d wire QP(s)\n",
		len(chans7), c7.Nodes[0].NIC.NumQPs())

	resps7, errs7, i7 := 0, 0, 0
	stop7 := false
	var tick7 func()
	tick7 = func() {
		if stop7 {
			return
		}
		ch := chans7[i7%len(chans7)]
		i7++
		ch.SendMsg([]byte("mux load"), 0, func(m *xrdma.Msg, err error) {
			if err == nil {
				resps7++
			} else {
				errs7++
			}
		})
		c7.Eng.AfterBg(300*sim.Microsecond, tick7)
	}
	c7.Eng.AfterBg(300*sim.Microsecond, tick7)

	// Phase 1: hard fault. The flap breaks the shared QP; keepalive
	// detects it and one redial re-attaches every channel.
	inj7 := chaos.New(c7)
	c7.Eng.AfterBg(20*sim.Millisecond, func() { inj7.HostLinkDown(4) })
	c7.Eng.AfterBg(50*sim.Millisecond, func() { inj7.HostLinkUp(4) })
	c7.Eng.RunFor(250 * sim.Millisecond)
	fmt.Printf("drill 7: link flap -> degraded=%d recoveries=%d (6 channels, one shared-QP event)\n",
		ctx7.Stats.Degraded, ctx7.Stats.Recoveries)

	// Phase 2: gray fault. Brown out the ToR–leaf link the shared QP
	// hashes onto (both directions — requests *and* acks suffer). The
	// doctor walks the whole ladder through the one shared QP: flow-label
	// rotations against the TX symptoms, cooperative PATH_HINTs for the
	// reverse-path ones, and when the gray persists on both directions it
	// spends its rehash budget and escalates — one re-establishment, six
	// channels healed, exactly once each.
	leaf7 := fmt.Sprintf("pod0-leaf%d", fabric.ECMPIndex(chans7[0].FlowHash(), 2))
	inj7.Brownout("pod0-tor0", leaf7, 0.12, 0.05, 20*sim.Microsecond)
	c7.Eng.RunFor(150 * sim.Millisecond)
	inj7.ClearBrownout("pod0-tor0", leaf7)
	stop7 = true
	c7.Eng.RunFor(50 * sim.Millisecond)
	healthy7 := 0
	for _, ch := range chans7 {
		if ch.Health() == xrdma.HealthHealthy {
			healthy7++
		}
	}
	fmt.Printf("drill 7: brownout -> rehashes=%d hints=%d escalations=%d recoveries=%d; %d/%d responses, %d/%d channels healthy\n",
		ctx7.Stats.PathRehashes, ctx7.Stats.PathHints, ctx7.Stats.PathEscalations,
		ctx7.Stats.Recoveries, resps7, resps7+errs7, healthy7, len(chans7))
	for _, line := range chans7[0].PathLog() {
		fmt.Println("  " + line)
	}

	// ---- drill 8: multi-tenant overload — elephant vs mouse ------------
	// Two tenants share ONE mux QP: a latency-sensitive mouse (weight 8)
	// and a bulk elephant (weight 1, rate/window/memory-limited). The
	// elephant floods the shared SQ and overruns its 40 KiB staging
	// budget; the DRR scheduler and the elephant's own limits hold the
	// mouse's tail, budget breaches reject loudly (never stall) and trip
	// a flight dump naming the culprit tenant, a late elephant attach is
	// shed into the admission FIFO, and once the flood stops the mouse's
	// tail and the queued attach both recover.
	c8 := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		Nodes:    8,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.QPsPerPeer = 1
			cfg.AttachAdmission = 4
			cfg.TenantShedCooldown = 20 * sim.Millisecond
			cfg.Tenants = []xrdma.TenantConfig{
				{Name: "mouse", Weight: 8},
				{Name: "elephant", Weight: 1,
					RateBps:    1 << 30,
					BurstBytes: 64 << 10,
					SendWindow: 16,
					MemBudget:  40 << 10},
			}
		},
	})
	c8.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 16) })
	})
	ctx8 := c8.Nodes[0].Ctx
	mouse8, err8 := ctx8.ChannelTo(c8.Nodes[4].ID, 7000, xrdma.WithTenant("mouse"))
	must(err8)
	start8 := c8.Eng.Now()
	var contended, recovered []sim.Duration
	var tick8 func()
	tick8 = func() {
		if c8.Eng.Now().Sub(start8) >= 300*sim.Millisecond {
			return
		}
		at := c8.Eng.Now()
		mouse8.SendMsg(nil, 16, func(m *xrdma.Msg, err error) {
			if err != nil {
				return
			}
			lat := c8.Eng.Now().Sub(at)
			switch issued := at.Sub(start8); {
			case issued >= 250*sim.Millisecond:
				recovered = append(recovered, lat)
			case issued >= 30*sim.Millisecond && issued < 230*sim.Millisecond:
				contended = append(contended, lat)
			}
		})
		c8.Eng.AfterBg(200*sim.Microsecond, tick8)
	}
	c8.Eng.AfterBg(200*sim.Microsecond, tick8)
	budget8 := 0
	c8.Eng.AfterBg(10*sim.Millisecond, func() {
		for e := 0; e < 4; e++ {
			ech, err := ctx8.ChannelTo(c8.Nodes[4].ID, 7000, xrdma.WithTenant("elephant"))
			must(err)
			// Closed inline loops saturate the shared SQ...
			for l := 0; l < 8; l++ {
				var loop func()
				loop = func() {
					if c8.Eng.Now().Sub(start8) >= 230*sim.Millisecond {
						return
					}
					ech.SendMsg(nil, 4096, func(*xrdma.Msg, error) { loop() })
				}
				c8.Eng.AfterBg(sim.Duration(l+1)*10*sim.Microsecond, loop)
			}
			// ...and concurrent 32 KiB rendezvous streams overrun the
			// 40 KiB staging budget: ErrTenantBudget, retry later.
			var pump func()
			pump = func() {
				if c8.Eng.Now().Sub(start8) >= 230*sim.Millisecond {
					return
				}
				ech.SendMsg(nil, 32<<10, func(_ *xrdma.Msg, err error) {
					if err != nil {
						budget8++
						c8.Eng.AfterBg(2*sim.Millisecond, pump)
						return
					}
					pump()
				})
			}
			c8.Eng.AfterBg(sim.Duration(e)*50*sim.Microsecond, pump)
		}
	})
	var late8 *xrdma.Channel
	c8.Eng.AfterBg(120*sim.Millisecond, func() {
		ch, err := ctx8.ChannelTo(c8.Nodes[4].ID, 7000, xrdma.WithTenant("elephant"))
		must(err)
		late8 = ch
		ch.SendMsg(nil, 64, func(*xrdma.Msg, error) {})
	})
	c8.Eng.RunFor(400 * sim.Millisecond)

	fmt.Printf("drill 8 (tenants): mouse p99 contended=%v recovered=%v (%d/%d samples)\n",
		p99(contended), p99(recovered), len(contended), len(recovered))
	shed8 := 0
	var culprit8 uint32
	for _, d := range ctx8.Telemetry().Flight.Dumps() {
		if d.Reason == telemetry.CatTenantShed {
			shed8++
			if culprit8 == 0 {
				culprit8 = d.QPN
			}
		}
	}
	ele8 := ctx8.Tenant("elephant")
	fmt.Printf("drill 8: elephant budget rejections=%d (counter %d), shed dumps=%d naming tenant %d (%s)\n",
		budget8, ele8.MemRejects, shed8, culprit8, ctx8.Tenants()[culprit8-1].Name())
	fmt.Printf("drill 8: late elephant attach shed then established=%v (attach sheds=%d); tenant ledger:\n",
		late8.Attached(), ele8.AttachSheds)
	for _, line := range ctx8.TenantDigest() {
		fmt.Println("  " + line)
	}

	// ---- drill 9: hot upgrade — drain, restart, rehydrate --------------
	// Both ends of a live channel roll v1→v2 one at a time. Drain drives
	// Serving→Draining→Drained, seals the floors, unacked tail and channel
	// identities into a handoff blob, the restarted (now v2-capable)
	// instance rehydrates and re-establishes through the recovery plane,
	// and the replayed tail lands exactly-once at the survivor. Mixed
	// versions interoperate mid-roll; a probe dialed after both waves
	// negotiates v2.
	nic9 := rnic.DefaultConfig()
	nic9.RetransTimeout = 2 * sim.Millisecond
	nic9.RetryLimit = 3
	c9 := cluster.New(cluster.Options{
		Topology:    fabric.SmallClos(),
		NICCfg:      nic9,
		Nodes:       8,
		RecoverPort: 9100,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 8 * sim.Millisecond
			cfg.RecoverRetries = 8
			cfg.RecoverBackoffMax = 8 * sim.Millisecond
			cfg.RecoverDialTimeout = 20 * sim.Millisecond // cold post-restart caches
			cfg.DrainDeadline = 10 * sim.Millisecond
		},
	})
	recv9 := map[uint64]int{} // server-side deliveries per message ID
	echo9 := func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			if len(m.Data) >= 8 {
				recv9[binary.LittleEndian.Uint64(m.Data)]++
			}
			m.Reply(m.Retain(), 0)
		})
	}
	c9.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) { echo9(ch) })
	var ch09 *xrdma.Channel
	c9.Connect(0, 4, 7000, func(ch *xrdma.Channel, err error) { must(err); ch09 = ch })
	c9.Eng.Run()
	fmt.Printf("drill 9 (upgrade): before roll ver=%d caps=%#x\n",
		ch09.NegotiatedVersion(), ch09.PeerCaps())
	resps9, errs9 := 0, 0
	sent9, id9 := 0, uint64(0)
	stop9 := false
	var tick9 func()
	tick9 = func() {
		if stop9 {
			return
		}
		c9.Eng.AfterBg(500*sim.Microsecond, tick9)
		// Pause while our own instance drains: the blob freezes the tail,
		// the replay finishes the rest.
		if c9.Nodes[0].Ctx.DrainPhase() != xrdma.DrainServing || ch09.Closed() {
			return
		}
		id9++
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint64(payload, id9)
		sent9++
		ch09.SendMsg(payload, 0, func(m *xrdma.Msg, err error) {
			if err != nil {
				errs9++
				return
			}
			resps9++
		})
	}
	c9.Eng.AfterBg(500*sim.Microsecond, tick9)
	inj9 := chaos.New(c9)
	roll9 := func(node int) func() {
		return func() {
			inj9.DrainRestart(node,
				func(cfg *xrdma.Config) { cfg.ProtoVerMax = 2 },
				func(ctx *xrdma.Context) {
					ctx.OnChannel(func(ch *xrdma.Channel) {
						echo9(ch)
						if node == 0 && ch.Peer == c9.Nodes[4].ID {
							ch09 = ch // rehydrated successor of our channel
						}
					})
					must(ctx.Listen(7000))
				})
		}
	}
	c9.Eng.AfterBg(30*sim.Millisecond, roll9(4))
	c9.Eng.AfterBg(100*sim.Millisecond, roll9(0))
	c9.Eng.RunFor(200 * sim.Millisecond)
	stop9 = true
	c9.Eng.RunFor(50 * sim.Millisecond)
	dups9, delivered9 := 0, 0
	for _, n := range recv9 {
		delivered9++
		if n > 1 {
			dups9 += n - 1
		}
	}
	fmt.Printf("drill 9: %d sent, %d delivered (dups=%d), %d responses, %d errors across both rolls\n",
		sent9, delivered9, dups9, resps9, errs9)
	// The rehydrated channel keeps the version it negotiated at
	// establishment — renegotiation happens per-establishment, so only
	// channels dialed after the roll settle v2.
	fmt.Printf("drill 9: rehydrated channel keeps ver=%d caps=%#x (rehydrated=%d)\n",
		ch09.NegotiatedVersion(), ch09.PeerCaps(), c9.Nodes[0].Ctx.Stats.Rehydrated)
	probe9 := 0
	c9.Connect(0, 4, 7000, func(ch *xrdma.Channel, err error) {
		must(err)
		probe9 = int(ch.NegotiatedVersion())
	})
	c9.Eng.Run()
	fmt.Printf("drill 9: fresh probe negotiates v%d\n", probe9)
	fmt.Println("drill 9 upgrade timeline:")
	for _, line := range inj9.Digest() {
		fmt.Println("  " + line)
	}

	// ---- drill 10: fleet diagnosis — gray optic, incident lifecycle ----
	// The XR-Mon collector watches an 8-node fleet while one host's access
	// optic goes gray (loss + corruption, link stays up). Node 3 fans
	// heavy one-way streams across the far ToR, so each peer catches only
	// a sliver of the corruption while node 3 aggregates every flow's
	// retransmits — the signature that pins a sick host rather than a
	// sick fabric element. Node 2 runs a probe burst over the same bad
	// link during the onset; its share of the symptoms holds the opening
	// confidence down, and when the burst ends the incident escalates.
	// Replacing the optic closes it after the quiet horizon.
	nic10 := rnic.DefaultConfig()
	nic10.RetransTimeout = 1 * sim.Millisecond
	nic10.RetryLimit = 12 // the gray optic must stay gray
	c10 := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic10,
		Nodes:    8,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.StatsInterval = 2 * sim.Millisecond
			cfg.PathDoctor = false // no self-healing: the diagnoser gets the stage
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 8 * sim.Millisecond
		},
	})
	col10 := xrmon.For(c10.Eng)
	for i := 0; i < 8; i++ {
		col10.SetLocation(int32(i), fmt.Sprintf("pod0-tor%d", i/4), "pod0")
	}
	// Small hot fleet: raise the symptom floor so a far-ToR peer's sliver
	// of corrupt frames never reads as its own symptom, while node 2's
	// probe burst (and of course node 3 itself) clears it.
	// A longer open-hysteresis keeps the verdict from firing while the
	// sliding windows are still ramping into the fault.
	// A longer close-horizon rides through the stall dip after the probe
	// burst ends instead of flapping the incident closed and reopen.
	col10.Watch(xrmon.WatchConfig{GraySymptomMin: 30, OpenAfter: 6, CloseAfter: 16})
	col10.OnIncident(func(inc *xrmon.Incident, ev string) {
		fmt.Printf("drill 10 (fleet): t=%v %-8s class=%s culprit=%s conf=%d\n",
			c10.Eng.Now(), ev, inc.Class, inc.Culprit, inc.Confidence)
		if ev == "open" {
			for _, e := range inc.Evidence {
				fmt.Println("  evidence: " + e)
			}
		}
	})
	c10.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 0) })
	})
	pairs10 := [][2]int{
		{0, 4}, {1, 5}, {2, 6}, {3, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7},
		{3, 4}, {3, 5}, {3, 6}, // node 3's far-ToR fan-out
	}
	var chans10 []*xrdma.Channel
	c10.ConnectPairs(pairs10, 7000, func(chs []*xrdma.Channel) { chans10 = chs })
	c10.Eng.Run()
	heavy10 := []*xrdma.Channel{chans10[3], chans10[8], chans10[9], chans10[10]}
	probing10 := false
	var tick10 func()
	tick10 = func() {
		for _, ch := range chans10[:8] {
			ch.SendMsg(make([]byte, 1024), 0, func(*xrdma.Msg, error) {})
		}
		for _, ch := range heavy10 {
			ch.SendMsg(make([]byte, 1024), 0, nil)
			ch.SendMsg(make([]byte, 1024), 0, nil)
		}
		if probing10 { // node 2's probe burst shares the gray link
			for k := 0; k < 6; k++ {
				chans10[5].SendMsg(make([]byte, 1024), 0, func(*xrdma.Msg, error) {})
			}
		}
		c10.Eng.AfterBg(500*sim.Microsecond, tick10)
	}
	c10.Eng.AfterBg(500*sim.Microsecond, tick10)
	inj10 := chaos.New(c10)
	inj10.Schedule([]chaos.Step{
		{At: 30 * sim.Millisecond, Name: "optic goes gray", Do: func(i *chaos.Injector) {
			probing10 = true
			i.HostBrownout(3, 0.15, 0.03, 20*sim.Microsecond)
		}},
		{At: 70 * sim.Millisecond, Name: "probe burst ends", Do: func(i *chaos.Injector) {
			probing10 = false
		}},
		{At: 130 * sim.Millisecond, Name: "optic replaced", Do: func(i *chaos.Injector) {
			i.ClearHostBrownout(3)
		}},
	})
	c10.Eng.RunFor(250 * sim.Millisecond)
	fmt.Println("drill 10 root-cause report:")
	for _, line := range col10.Digest() {
		fmt.Println("  " + line)
	}
	fmt.Println("drill 10 fault timeline:")
	for _, line := range inj10.Digest() {
		fmt.Println("  " + line)
	}

	fmt.Println("\nfinal XR-Stat on node 0:")
	fmt.Print(xrdma.XRStat(c.Nodes[0].Ctx))
}

// p99 is the 99th-percentile of a latency sample (0 when empty).
func p99(lats []sim.Duration) sim.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99+99)/100-1]
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
