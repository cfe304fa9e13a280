// xr-stat is the netstat analogue of §VI-B: it runs a brief workload on a
// small cluster and prints, for every node, the per-connection table
// pivoted from the telemetry registry's per-channel gauges (including the
// path-doctor columns SCORE/VERDICT/REHASH/RETRY), then the xrmon agent's
// periodic samples for node 0, the full metric registry (grouped
// netstat -s style) with -all, and any flight-recorder dumps. With -gray
// it browns out one spine path mid-run so the path-doctor columns and the
// path.verdict/path.rehash flight events show live values. With -mux it
// multiplexes channels over shared QP pools and caps per-channel gauge
// rows, so the table shows muxed "m<cid>" rows plus the per-peer
// aggregate rows that bound registry growth at scale. With -storm it
// exposes an MR window on node 1 and drives one-sided READ/WRITE(+imm)
// traffic from node 0, so the READS/WRITES/RDBYTES columns show live
// values alongside the two-sided workload. With -tenants it configures a
// weighted mouse/elephant tenant pair on one shared QP and overdrives the
// elephant's memory budget, so node 0's TENANT table and the
// tenant.budget/tenant.shed flight dumps show live values. With -upgrade
// it runs a mixed-version fleet — nodes 0 and 1 offer protocol v2 while
// the rest stay v1 — then drains the last node after the workload, so the
// VER/CAPS columns show the negotiated split, the DRAIN column and header
// show the lifecycle, and a dial into the draining node is refused with
// ErrDraining (drain.refuse flight event).
package main

import (
	"flag"
	"fmt"
	"os"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
	"xrdma/internal/xrmon"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster size")
	dur := flag.Duration("dur", 0, "simulated workload duration (default 200ms)")
	seed := flag.Uint64("seed", 1, "seed")
	all := flag.Bool("all", false, "also print the full metric registry (every layer's counters)")
	gray := flag.Bool("gray", false, "brown out one spine path mid-run (path-doctor demo)")
	mux := flag.Bool("mux", false, "multiplex channels over shared QP pools and cap per-channel gauge rows (scaling demo)")
	blame := flag.Bool("blame", false, "sample messages onto the blame plane and print the stage-attribution table")
	storm := flag.Bool("storm", false, "drive one-sided READ/WRITE(+imm) traffic against an MR window on node 1 (Storm-style dataplane demo)")
	tenants := flag.Bool("tenants", false, "run a mouse/elephant tenant pair on one shared QP with QoS limits (multi-tenant isolation demo)")
	upgrade := flag.Bool("upgrade", false, "mixed-version fleet: nodes 0-1 offer proto v2, the rest stay v1, last node drains at the end (VER/CAPS/DRAIN demo)")
	prom := flag.Bool("prom", false, "print the metric registry in Prometheus exposition format")
	flag.Parse()

	horizon := 200 * sim.Millisecond
	if *dur > 0 {
		horizon = sim.Dur(*dur)
	}
	topo := fabric.ClusterClos(*nodes)
	n := *nodes
	nicCfg := rnic.Config{}
	if *gray {
		// The gray demo needs two ToRs sharing an ECMP leaf tier, and a
		// deep RC retry horizon so the brownout stays gray (absorbed by
		// go-back-N) instead of escalating to retry exhaustion.
		topo = fabric.SmallClos()
		n = 8
		nicCfg = rnic.DefaultConfig()
		nicCfg.RetransTimeout = 1 * sim.Millisecond
		nicCfg.RetryLimit = 12
	}
	recPort := 0
	if *upgrade {
		// The handoff blob only carries channels the recovery plane can
		// re-establish, so the upgrade demo needs QPN indexing on.
		recPort = 7801
	}
	c := cluster.New(cluster.Options{
		Topology: topo, NICCfg: nicCfg, Nodes: n, Seed: *seed, RecoverPort: recPort,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.StatsInterval = 20 * sim.Millisecond
			if *blame {
				// Blame tracing needs the req-rsp plane (the response
				// mirrors the remote stages back); sample 1-in-16.
				cfg.ReqRspMode = true
				cfg.TraceSampleN = 16
			}
			if *gray {
				cfg.StatsInterval = 1 * sim.Millisecond // doctor scan cadence
				cfg.PathRehashCooldown = 4 * sim.Millisecond
				cfg.RequestTimeout = 25 * sim.Millisecond
				cfg.RequestRetries = 2
				cfg.RetryBackoff = 1 * sim.Millisecond
			}
			if *mux {
				// Shared-QP demo: every channel to a peer rides a 2-QP
				// pool, and only the first 4 channels get individual
				// XR-Stat rows — the rest fold into per-peer aggregates,
				// which is what keeps the registry O(peers) at 100k
				// channels.
				cfg.QPsPerPeer = 2
				cfg.ChannelGaugeLimit = 4
			}
			if *upgrade {
				// Half the fleet already upgraded: 0 and 1 offer [1,2] and
				// settle v2 (with the drain-hint capability) between
				// themselves, while channels touching a v1-only node settle
				// the baseline. The short deadline keeps the closing drain
				// demo snappy.
				if node <= 1 {
					cfg.ProtoVerMax = 2
				}
				cfg.DrainDeadline = 10 * sim.Millisecond
			}
			if *tenants {
				// Tenant demo: both tenants share ONE mux QP so the DRR
				// scheduler arbitrates, and the elephant's memory budget
				// is small enough that its rendezvous streams overrun it
				// (ErrTenantBudget → MEMREJ column + shed flight dumps).
				cfg.QPsPerPeer = 1
				cfg.TenantShedCooldown = 5 * sim.Millisecond
				cfg.Tenants = []xrdma.TenantConfig{
					{Name: "mouse", Weight: 8},
					{Name: "elephant", Weight: 1,
						RateBps:    1 << 30,
						BurstBytes: 64 << 10,
						SendWindow: 16,
						MemBudget:  40 << 10},
				}
			}
		},
	})
	var srvChans []*xrdma.Channel // channels accepted by node 1 (the -storm window owner)
	c.ListenAll(7000, func(nd *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 128) })
		if *storm && nd.ID == 1 {
			srvChans = append(srvChans, ch)
		}
	})
	pairs := cluster.FullMeshPairs(n)
	var chans []*xrdma.Channel
	c.ConnectPairs(pairs, 7000, func(chs []*xrdma.Channel) { chans = chs })
	c.Eng.Run()
	if *mux {
		// A dozen extra channels from node 0 to node 1: they all share
		// node 0's existing 2-QP pool to that peer, and most of them land
		// past ChannelGaugeLimit so node 0's table shows both individual
		// "m<cid>" rows and the folded per-peer aggregate row.
		for i := 0; i < 12; i++ {
			c.Connect(0, 1, 7000, func(ch *xrdma.Channel, err error) {
				if err == nil {
					chans = append(chans, ch)
				}
			})
		}
		c.Eng.Run()
	}
	var oneSided *xrdma.Channel
	if *storm {
		// Node 1 exposes a window, grants it over every accepted channel's
		// ctrl plane, and node 0 drives speculative READs plus the odd
		// WRITE+imm against it — the responder's middleware stays asleep
		// for the reads, yet the gauges still tick.
		var win *xrdma.Window
		c.Nodes[1].Ctx.ExposeWindow(32<<10, func(w *xrdma.Window, err error) {
			if err != nil {
				panic(err)
			}
			win = w
		})
		c.Eng.Run()
		pat := win.Bytes()
		for i := range pat {
			pat[i] = byte(i*31 + 7)
		}
		for _, sc := range srvChans {
			sc.GrantWindow(win)
		}
		for i, p := range pairs {
			if p[0] == 0 && p[1] == 1 {
				oneSided = chans[i]
			}
		}
		c.Eng.Run()
		rw, ok := oneSided.PeerWindow(win.ID)
		if !ok {
			panic("xr-stat: window grant never arrived")
		}
		data := make([]byte, 1024)
		for i := 0; i < 64; i++ {
			i := i
			off := uint64((i % 16) * 1024)
			c.Eng.AfterBg(sim.Duration(i+1)*500*sim.Microsecond, func() {
				if i%4 == 3 {
					oneSided.WriteRemote(rw, off, data, uint32(i), func(error) {})
				} else {
					oneSided.ReadRemote(rw, off, 1024, func([]byte, error) {})
				}
			})
		}
	}
	if *tenants {
		// Labelled channels node 0 → node 1: one latency-sensitive mouse
		// ticking small requests, one elephant running two concurrent
		// 32 KiB rendezvous streams (the second overruns the 40 KiB memory
		// budget, rejecting loudly) plus a 4 KiB closed loop that keeps the
		// token bucket and DRR busy.
		ctx0 := c.Nodes[0].Ctx
		mouseCh, err := ctx0.ChannelTo(c.Nodes[1].ID, 7000, xrdma.WithTenant("mouse"))
		if err != nil {
			panic(err)
		}
		eleCh, err := ctx0.ChannelTo(c.Nodes[1].ID, 7000, xrdma.WithTenant("elephant"))
		if err != nil {
			panic(err)
		}
		var tick func()
		tick = func() {
			mouseCh.SendMsg(nil, 64, func(*xrdma.Msg, error) {})
			c.Eng.AfterBg(200*sim.Microsecond, tick)
		}
		c.Eng.AfterBg(200*sim.Microsecond, tick)
		var inline func()
		inline = func() { eleCh.SendMsg(nil, 4096, func(*xrdma.Msg, error) { inline() }) }
		c.Eng.AfterBg(50*sim.Microsecond, inline)
		for s := 0; s < 2; s++ {
			var pump func()
			pump = func() {
				eleCh.SendMsg(nil, 32<<10, func(_ *xrdma.Msg, err error) {
					if err != nil {
						c.Eng.AfterBg(1*sim.Millisecond, pump)
						return
					}
					pump()
				})
			}
			c.Eng.AfterBg(sim.Duration(s+1)*100*sim.Microsecond, pump)
		}
	}
	var gens []*workload.OpenLoop
	for i, ch := range chans {
		g := workload.NewOpenLoop(ch, 300*sim.Microsecond, workload.MiceElephants(512, 32<<10, 0.2), *seed+uint64(i))
		g.Start()
		gens = append(gens, g)
	}
	if *gray {
		// Warm up on the clean fabric, then degrade the exact spine path
		// the 0→4 channel rides (loss + corruption + added latency) and
		// let the doctor find its way off it.
		c.Eng.RunFor(50 * sim.Millisecond)
		var victim *xrdma.Channel
		for i, p := range pairs {
			if p[0] == 0 && p[1] == 4 {
				victim = chans[i]
			}
		}
		inj := chaos.New(c)
		leaf := fmt.Sprintf("pod0-leaf%d", fabric.ECMPIndex(victim.FlowHash(), 2))
		inj.Brownout("pod0-tor0", leaf, 0.1, 0.03, 20*sim.Microsecond)
		c.Eng.RunFor(horizon)
	} else {
		c.Eng.RunFor(horizon)
	}
	for _, g := range gens {
		g.Stop()
	}
	c.Eng.RunFor(20 * sim.Millisecond)

	var upBlob []byte
	var upRefused error
	if *upgrade {
		// Roll the last node out of service: Drain drives
		// Serving→Draining→Drained and seals the handoff blob once every
		// channel quiesces. A dial landing inside the window is refused
		// with ErrDraining — counted, flight-logged, and visible in the
		// DRAIN column below.
		last := n - 1
		if err := c.Nodes[last].Ctx.Drain(func(b []byte) { upBlob = b }); err != nil {
			panic(err)
		}
		c.Connect(0, last, 7000, func(_ *xrdma.Channel, err error) { upRefused = err })
		c.Eng.RunFor(20 * sim.Millisecond)
	}

	// One engine → one telemetry set, shared by every layer of this world.
	tel := telemetry.For(c.Eng)
	if *gray {
		// Freeze the flight ring so the path.verdict / path.rehash events
		// of the episode are preserved in a dump below.
		tel.Flight.ForceDump(c.Eng.Now(), "xr-stat: gray-path episode")
	}

	if *upgrade {
		last := c.Nodes[n-1].Ctx
		fmt.Printf("upgrade demo: node %d drained → handoff blob %dB, refusals=%d; dial during drain: %v\n\n",
			n-1, len(upBlob), last.Stats.DrainRefusals, upRefused)
	}
	if *storm {
		fmt.Printf("one-sided demo (node 0 → node 1): reads=%d rdbytes=%d writes=%d wrbytes=%d raerrs=%d\n\n",
			oneSided.Counters.Reads, oneSided.Counters.ReadBytes,
			oneSided.Counters.Writes, oneSided.Counters.WriteBytes,
			oneSided.Counters.RemoteAccessErrs)
	}
	for _, nd := range c.Nodes {
		fmt.Print(xrdma.XRStat(nd.Ctx))
		fmt.Println()
	}
	fmt.Println("monitor samples for node 0, the agent's window (QPs, mem, msgs):")
	// Oldest tick first; a slot's value k ticks ago is its latest absolute
	// value minus the deltas since.
	a := xrmon.For(c.Eng).AgentFor(0)
	for k := a.Len() - 1; k >= 0; k-- {
		abs := func(slot int) int64 { return a.Abs(slot) - a.LastN(slot, k) }
		fmt.Printf("  t=%-14v qps=%-3d occupy=%-9d in-use=%-9d sent=%-6d recv=%-6d slowpolls=%d\n",
			a.At(k), abs(xrmon.SlotQPs), abs(xrmon.SlotMemOccupied), abs(xrmon.SlotMemInUse),
			abs(xrmon.SlotMsgsSent), abs(xrmon.SlotMsgsRecv), abs(xrmon.SlotSlowPolls))
	}

	if *blame {
		fmt.Println("\nblame attribution (engine-wide, sampled 1-in-16):")
		fmt.Print(tel.Blame.Table())
	}
	if *all {
		fmt.Println("\nmetric registry:")
		fmt.Print(tel.Reg.Table())
	}
	if *prom {
		fmt.Println("\nprometheus exposition:")
		tel.Reg.WritePrometheus(os.Stdout)
	}
	if dumps := tel.Flight.Dumps(); len(dumps) > 0 {
		fmt.Printf("\nflight recorder: %d dump(s)\n", len(dumps))
		for _, d := range dumps {
			fmt.Println(d.String())
		}
	}
}
