package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// E22 "scale": the 4000-node fitting test. §III Issue 1's arithmetic —
// full-mesh services on thousands of hosts need millions of QPs — is the
// reason the mux plane exists; this experiment checks the arithmetic on
// a multi-pod ClusterClos world. Every host gets a full software stack
// (NIC, TCP, context). A set of client nodes opens many channels per
// peer over QP multiplexing (Config.QPsPerPeer shared QPs, SRQ receives,
// wire-header demux) plus a crowd of idle flyweight descriptors that
// never attach, then drives a request/response load across pods.
//
// Three properties are claimed, all from the system's own accounting:
//
//	multiplexing  — ≥10× more live channels than wire QPs
//	conservation  — every request delivered exactly once, every
//	                response returned; idle descriptors never dialed
//	footprint     — world + channels + traffic fit a fixed heap budget
//	                (runtime.ReadMemStats, race-adjusted)
//
// The digest is a pure function of the seed: bit-identical across
// sequential reruns and across concurrent goroutines (-j 1 vs -j 8).

// Scale sizing. Smoke spans 2 pods; -full builds the ~4000-host world
// the paper's production clusters run (16 pods of 16 ToRs × 16 hosts).
const (
	scaleSmokeHosts   = 320
	scaleFullHosts    = 4096
	scaleChansPerPeer = 24 // active channels multiplexed per peer pair
	scaleReqsPerChan  = 3
	scaleReqBytes     = 64

	// Heap budgets for HeapOK (adjusted by raceHeapMul under -race), weighed
	// with the world still reachable. The smoke world (320 stacks, ~1500 live
	// + 2400 idle channels) measures 10.2 MiB: 0.11 are the bytes that landed
	// in the first memory-cache region (512 KiB, holding the SRQ's first
	// 256 KiB block) of each of the 18 contexts that talk, 10.1 the rest. The
	// full world (4096 stacks, ~12k live channels) measures 133 MiB: 1.8 of
	// landed bytes (272 contexts that talk), 131.6 the rest. The margins
	// catch a per-channel state regression (the flyweight structure growing
	// eager maps again) or a shared receive queue filled ahead of demand
	// again; a region registered ahead of demand makes no bytes, so
	// TestScaleWorld caps the registered bytes instead.
	scaleSmokeHeapBudget = 24 << 20
	scaleFullHeapBudget  = 416 << 20
)

func scaleHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ScaleWorld runs E22.
func ScaleWorld(sc Scale) Result {
	hosts, clients, peersPer, idlePer := scaleSmokeHosts, 8, 4, 300
	budget := int64(scaleSmokeHeapBudget)
	horizon := 120 * sim.Millisecond
	if sc.Full {
		hosts, clients, peersPer, idlePer = scaleFullHosts, 32, 8, 1000
		budget = scaleFullHeapBudget
		horizon = 400 * sim.Millisecond
	}
	budget *= raceHeapMul
	topo := fabric.ClusterClos(hosts)
	hosts = topo.Hosts()

	heap0 := scaleHeap()

	c := cluster.New(cluster.Options{
		Topology: topo,
		Seed:     sc.Seed,
		Config: func(_ int, cfg *xrdma.Config) {
			cfg.QPsPerPeer = 2
			cfg.AttachAdmission = 16
			cfg.ChannelGaugeLimit = 8
		},
	})
	// What an observer allocates when it attaches (a 4 MiB trace ring) is
	// not the world's, so the budget does not count it.
	attach := scaleHeap()
	sc.observe(c.Eng, "scale")
	heap0 += scaleHeap() - attach
	eng := c.Eng

	// Per-server exactly-once ledger, indexed by request id.
	l := newLedger()
	l.serve(c, 9000)

	// Clients live on pod0/ToR0; each talks to peersPer distinct servers
	// in later pods (every request crosses at least the leaf tier, most
	// cross the spine). Servers may be shared between clients — each
	// (client, server) pair still owns its QPsPerPeer shared QPs, and QP
	// accounting reads the NICs directly.
	podSize := topo.TorsPerPod * topo.HostsPerTor
	var active, idle []*xrdma.Channel
	for ci := 0; ci < clients; ci++ {
		ctx := c.Nodes[ci].Ctx
		for pi := 0; pi < peersPer; pi++ {
			// Server host: walk pods round-robin, one fresh ToR slot each.
			srvIdx := podSize + ((ci*peersPer+pi)*topo.HostsPerTor+7)%(hosts-podSize)
			srv := c.Nodes[srvIdx].ID
			for k := 0; k < scaleChansPerPeer; k++ {
				ch, err := ctx.ChannelTo(srv, 9000)
				if err != nil {
					panic(fmt.Sprintf("scale: ChannelTo: %v", err))
				}
				active = append(active, ch)
			}
		}
		// Flyweight crowd: descriptors to hosts this client never
		// messages. They must stay a few hundred bytes each — no QP, no
		// window, no buffers — which is what the heap budget polices.
		for j := 0; j < idlePer; j++ {
			tgt := c.Nodes[(podSize+ci*idlePer+j)%hosts].ID
			ch, err := ctx.ChannelTo(tgt, 9001)
			if err != nil {
				panic(fmt.Sprintf("scale: idle ChannelTo: %v", err))
			}
			idle = append(idle, ch)
		}
	}

	// Staggered load: requests carry a unique id; replies echo it back.
	start := eng.Now()
	for i, ch := range active {
		kick := sim.Duration(1+i%64) * 50 * sim.Microsecond
		for s := 0; s < scaleReqsPerChan; s++ {
			id := uint64(i)<<16 | uint64(s)
			at := kick + sim.Duration(s)*150*sim.Microsecond
			eng.AfterBg(at, func() { l.request(ch, id, scaleReqBytes, nil) })
		}
	}
	eng.RunUntil(start.Add(horizon))

	// Accounting, from the system's own counters.
	var activeChans, wireQPs, idleAttach, registered int
	for _, n := range c.Nodes {
		activeChans += int(n.Ctx.Stats.ChannelsOpened)
		wireQPs += n.NIC.NumQPs()
		registered += int(n.NIC.Mem.RegisteredBytes)
	}
	for _, ch := range idle {
		if ch.Attached() {
			idleAttach++
		}
	}
	var muxRatio float64
	if wireQPs > 0 {
		muxRatio = float64(activeChans) / float64(wireQPs)
	}
	tl := l.settle()

	// Delivery hash: per-request receipt counts in id order, so any
	// reordering of effects (not just totals) breaks the digest.
	h := fnv.New64a()
	var b [8]byte
	for i := range active {
		for s := 0; s < scaleReqsPerChan; s++ {
			id := uint64(i)<<16 | uint64(s)
			binary.LittleEndian.PutUint64(b[:], id<<8|uint64(l.recv[id]))
			h.Write(b[:])
		}
	}

	// The world has to be reachable while it is weighed: these are its last uses.
	heapBytes := scaleHeap() - heap0
	runtime.KeepAlive(c)
	runtime.KeepAlive(active)
	runtime.KeepAlive(idle)

	heapCell := fmt.Sprintf("FAIL (> %d MiB)", budget>>20)
	if heapBytes <= budget {
		heapCell = fmt.Sprintf("PASS (<= %d MiB)", budget>>20)
	}
	t := Table{
		ID:    "E22/Scale",
		Title: "Fitting the 4000-node world: QP multiplexing, flyweight channels, heap budget",
		Header: []string{"hosts", "pods", "chans", "idle", "qps", "chan/qp",
			"sent", "delivered", "dups", "lost", "resps", "heap"},
	}
	t.Addf(hosts, topo.Pods, activeChans, len(idle), wireQPs,
		fmt.Sprintf("%.1f", muxRatio), tl.Sent, tl.Delivered, tl.Dups, tl.Lost, tl.Resps, heapCell)
	t.Notes = append(t.Notes,
		"channels are flyweight descriptors multiplexed onto Config.QPsPerPeer shared QPs per peer node",
		"idle descriptors never dial: no QP, no window, a few hundred bytes each",
		"heap verdict text is deterministic; measured bytes are host-specific and excluded from the digest")
	// The digest: world shape, channel/QP accounting, conservation counters
	// and the per-server delivery hash. Heap bytes are excluded — they are
	// a property of the host Go runtime, not of the simulation.
	digest := []string{
		fmt.Sprintf("world hosts=%d pods=%d", hosts, topo.Pods),
		fmt.Sprintf("chans active=%d idle=%d idle_attached=%d qps=%d ratio=%.1f",
			activeChans, len(idle), idleAttach, wireQPs, muxRatio),
		fmt.Sprintf("traffic sent=%d delivered=%d dups=%d lost=%d resps=%d errs=%d",
			tl.Sent, tl.Delivered, tl.Dups, tl.Lost, tl.Resps, tl.SendErrs),
		fmt.Sprintf("digest=%016x", h.Sum64()),
	}
	// 320 stacks and the SRQ blocks of the contexts that talk cannot weigh
	// 8 MiB or less: a reading at or under that floor weighed a world the
	// collector had already freed.
	return Result{Tables: []*Table{&t}, Digest: digest, registered: registered, Claims: append(tl.claims("E22", 1000),
		within("E22/pods", "multi-pod", float64(topo.Pods), 2, inf),
		within("E22/chan÷qp", "≥10×", muxRatio, 10, inf),
		within("E22/idle-attached", "0", float64(idleAttach), 0, 0),
		within("E22/heap-MiB", "fits", float64(heapBytes)/(1<<20), above(8), float64(budget>>20)))}
}
