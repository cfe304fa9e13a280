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
// Three properties are asserted, all from the system's own accounting:
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
	// + 2400 idle channels) measures 20.2 MiB: 9 are the first memory-cache
	// region (512 KiB, holding the SRQ's first 256 KiB block) of each of the
	// 18 contexts that talk (8 clients, 10 distinct servers), 11 everything
	// else. The full world (4096 stacks, ~12k live channels) measures 358 MiB:
	// 136 of first regions (272 contexts that talk), 222 everything else. The
	// margins (16–19 %) are what catches a per-channel state regression (the
	// flyweight structure growing eager maps again), a region registered ahead
	// of demand again (one 4 MiB region a context: smoke 84 MiB) or a shared
	// receive queue filled ahead of demand again.
	scaleSmokeHeapBudget = 24 << 20
	scaleFullHeapBudget  = 416 << 20
)

// ScaleResult aggregates the drill.
type ScaleResult struct {
	Hosts, Pods int

	ActiveChans int // channels opened, both ends (system accounting)
	IdleChans   int // lazy descriptors created and never touched
	IdleAttach  int // idle descriptors that wrongly attached (must be 0)
	WireQPs     int // live QPs across every NIC at the end
	MuxRatio    float64

	Sent, Delivered, Dups, Lost, Resps int
	SendErrs                           int

	HeapBytes  int64 // measured (not in the digest or table: host-dependent)
	HeapBudget int64 // race-adjusted budget HeapOK compares against
	HeapOK     bool

	DigestHash uint64
	Table_     Table
}

// Digest renders the deterministic outcome: world shape, channel/QP
// accounting, conservation counters and the per-server delivery hash.
// Heap bytes are excluded — they are a property of the host Go runtime,
// not of the simulation.
func (r *ScaleResult) Digest() []string {
	return []string{
		fmt.Sprintf("world hosts=%d pods=%d", r.Hosts, r.Pods),
		fmt.Sprintf("chans active=%d idle=%d idle_attached=%d qps=%d ratio=%.1f",
			r.ActiveChans, r.IdleChans, r.IdleAttach, r.WireQPs, r.MuxRatio),
		fmt.Sprintf("traffic sent=%d delivered=%d dups=%d lost=%d resps=%d errs=%d",
			r.Sent, r.Delivered, r.Dups, r.Lost, r.Resps, r.SendErrs),
		fmt.Sprintf("digest=%016x", r.DigestHash),
	}
}

func scaleHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ScaleWorld runs E22.
func ScaleWorld(sc Scale) *ScaleResult {
	hosts, clients, peersPer, idlePer := scaleSmokeHosts, 8, 4, 300
	budget := int64(scaleSmokeHeapBudget)
	horizon := 120 * sim.Millisecond
	if sc.Full {
		hosts, clients, peersPer, idlePer = scaleFullHosts, 32, 8, 1000
		budget = scaleFullHeapBudget
		horizon = 400 * sim.Millisecond
	}
	topo := fabric.ClusterClos(hosts)
	r := &ScaleResult{Hosts: topo.Hosts(), Pods: topo.Pods, HeapBudget: budget * raceHeapMul}

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
	sc.observe(c.Eng, "scale")
	eng := c.Eng

	// Per-server exactly-once ledger, indexed by request id.
	recvCount := make(map[uint64]int)
	c.ListenAll(9000, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			id := binary.LittleEndian.Uint64(m.Data)
			recvCount[id]++
			m.Reply(m.Data[:8], 0)
		})
	})

	// Clients live on pod0/ToR0; each talks to peersPer distinct servers
	// in later pods (every request crosses at least the leaf tier, most
	// cross the spine). Servers may be shared between clients — each
	// (client, server) pair still owns its QPsPerPeer shared QPs, and QP
	// accounting reads the NICs directly.
	podSize := topo.TorsPerPod * topo.HostsPerTor
	type pair struct {
		ch     *xrdma.Channel
		client int
	}
	var active []pair
	var idle []*xrdma.Channel
	respSeen := make(map[uint64]int)
	for ci := 0; ci < clients; ci++ {
		ctx := c.Nodes[ci].Ctx
		for pi := 0; pi < peersPer; pi++ {
			// Server host: walk pods round-robin, one fresh ToR slot each.
			srvIdx := podSize + ((ci*peersPer+pi)*topo.HostsPerTor+7)%(r.Hosts-podSize)
			srv := c.Nodes[srvIdx].ID
			for k := 0; k < scaleChansPerPeer; k++ {
				ch, err := ctx.ChannelTo(srv, 9000)
				if err != nil {
					panic(fmt.Sprintf("scale: ChannelTo: %v", err))
				}
				active = append(active, pair{ch: ch, client: ci})
			}
		}
		// Flyweight crowd: descriptors to hosts this client never
		// messages. They must stay a few hundred bytes each — no QP, no
		// window, no buffers — which is what the heap budget polices.
		for j := 0; j < idlePer; j++ {
			tgt := c.Nodes[(podSize+ci*idlePer+j)%r.Hosts].ID
			ch, err := ctx.ChannelTo(tgt, 9001)
			if err != nil {
				panic(fmt.Sprintf("scale: idle ChannelTo: %v", err))
			}
			idle = append(idle, ch)
		}
	}

	// Staggered load: requests carry a unique id; replies echo it back.
	start := eng.Now()
	for i := range active {
		p := active[i]
		chIdx := uint64(i)
		kick := sim.Duration(1+i%64) * 50 * sim.Microsecond
		for s := 0; s < scaleReqsPerChan; s++ {
			id := chIdx<<16 | uint64(s)
			at := kick + sim.Duration(s)*150*sim.Microsecond
			eng.AfterBg(at, func() {
				buf := make([]byte, scaleReqBytes)
				binary.LittleEndian.PutUint64(buf, id)
				r.Sent++
				err := p.ch.SendMsg(buf, 0, func(m *xrdma.Msg, err error) {
					if err != nil {
						return
					}
					respSeen[binary.LittleEndian.Uint64(m.Data)]++
				})
				if err != nil {
					r.SendErrs++
				}
			})
		}
	}
	eng.RunUntil(start.Add(horizon))

	// Accounting, from the system's own counters.
	for _, n := range c.Nodes {
		r.ActiveChans += int(n.Ctx.Stats.ChannelsOpened)
		r.WireQPs += n.NIC.NumQPs()
	}
	r.IdleChans = len(idle)
	for _, ch := range idle {
		if ch.Attached() {
			r.IdleAttach++
		}
	}
	if r.WireQPs > 0 {
		r.MuxRatio = float64(r.ActiveChans) / float64(r.WireQPs)
	}
	for i := range active {
		for s := 0; s < scaleReqsPerChan; s++ {
			id := uint64(i)<<16 | uint64(s)
			switch n := recvCount[id]; {
			case n == 0:
				r.Lost++
			default:
				r.Delivered++
				if n > 1 {
					r.Dups++
				}
			}
			r.Resps += respSeen[id]
		}
	}

	// Delivery hash: per-request receipt counts in id order, so any
	// reordering of effects (not just totals) breaks the digest.
	h := fnv.New64a()
	var b [8]byte
	for i := range active {
		for s := 0; s < scaleReqsPerChan; s++ {
			id := uint64(i)<<16 | uint64(s)
			binary.LittleEndian.PutUint64(b[:], id<<8|uint64(recvCount[id]))
			h.Write(b[:])
		}
	}
	r.DigestHash = h.Sum64()

	// The world has to be reachable while it is weighed: these are its last uses.
	r.HeapBytes = scaleHeap() - heap0
	runtime.KeepAlive(c)
	runtime.KeepAlive(active)
	runtime.KeepAlive(idle)
	r.HeapOK = r.HeapBytes <= r.HeapBudget

	heapCell := fmt.Sprintf("FAIL (> %d MiB)", r.HeapBudget>>20)
	if r.HeapOK {
		heapCell = fmt.Sprintf("PASS (<= %d MiB)", r.HeapBudget>>20)
	}
	t := Table{
		ID:    "E22/Scale",
		Title: "Fitting the 4000-node world: QP multiplexing, flyweight channels, heap budget",
		Header: []string{"hosts", "pods", "chans", "idle", "qps", "chan/qp",
			"sent", "delivered", "dups", "lost", "resps", "heap"},
	}
	t.Addf(r.Hosts, r.Pods, r.ActiveChans, r.IdleChans, r.WireQPs,
		fmt.Sprintf("%.1f", r.MuxRatio), r.Sent, r.Delivered, r.Dups, r.Lost, r.Resps, heapCell)
	t.Notes = append(t.Notes,
		"channels are flyweight descriptors multiplexed onto Config.QPsPerPeer shared QPs per peer node",
		"idle descriptors never dial: no QP, no window, a few hundred bytes each",
		"heap verdict text is deterministic; measured bytes are host-specific and excluded from the digest")
	r.Table_ = t
	return r
}
