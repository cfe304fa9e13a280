package bench

import (
	"encoding/binary"
	"fmt"
	"strings"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// E25 "upgrade": the hot-upgrade drill. A 4-node cluster carries a live
// full-mesh of id-stamped request streams plus a background elephant
// (32 KiB rendezvous stream, its own tenant binding) while every node is
// rolled in sequence from protocol v1 to v2:
//
//	drain      in-flight work completes under the drain deadline; new
//	           attaches are refused with ErrDraining
//	restart    the middleware instance is replaced in place at
//	           ProtoVerMax=2; NIC, TCP stack and CM endpoint survive
//	rehydrate  the handoff blob restores every channel Degraded with its
//	           window floors, replay tail and negotiation verdict, and
//	           the recovery plane re-establishes the transport
//
// The drill claims not one message lost or
// duplicated across the whole wave (the seq-ack window dedups the replay
// exactly like a transient-fault recovery), rehydrated channels keep
// speaking the version they negotiated (a v2 restart does NOT bump v1
// peers mid-flight), a fresh mixed-version channel settles on v1 while a
// fresh post-wave channel settles on v2, and the digest is bit-identical
// sequentially and across concurrent goroutines.

const (
	upNodes    = 4
	upPort     = 7500
	upTick     = 500 * sim.Microsecond
	upEleSize  = 32 << 10
	upFirstAt  = 50 * sim.Millisecond
	upWaveGap  = 80 * sim.Millisecond // waves at 50/130/210/290 ms
	upMidAt    = 90 * sim.Millisecond // node 0 is v2, node 3 still v1
	upSendStop = 380 * sim.Millisecond
	upFinalAt  = 400 * sim.Millisecond
	upHorizon  = 520 * sim.Millisecond
)

// upStream is one client→server request stream and its conservation
// ledger. The id space is tagged per stream so the server-side echo can
// attribute every request.
type upStream struct {
	From, To int
	Tag      uint64
	Elephant bool

	ch      *xrdma.Channel
	nextID  uint64
	l       *ledger // accepted sends only
	Refused int     // SendMsg rejections (ErrDraining / closed instance)
}

// upgradeKnobs compresses the recovery clocks (chaosKnobs ratios) so each
// restart's degrade→recover cycle fits inside one wave gap. Every node
// starts legacy: ProtoVerMax unset ⇒ v1, no hello on the wire.
func upgradeKnobs(_ int, cfg *xrdma.Config) {
	cfg.KeepaliveInterval = 2 * sim.Millisecond
	cfg.KeepaliveTimeout = 8 * sim.Millisecond
	cfg.RecoverRetries = 8
	cfg.RecoverBackoffMax = 8 * sim.Millisecond
	// A restarted instance dials with a cold memory cache — the recv-pool
	// registrations alone eat several ms — so the dial budget is wider
	// than the chaos drill's.
	cfg.RecoverDialTimeout = 20 * sim.Millisecond
	cfg.FailbackInterval = 25 * sim.Millisecond
	cfg.DrainDeadline = 10 * sim.Millisecond
	cfg.Tenants = []xrdma.TenantConfig{{Name: "elephant", Weight: 1}}
}

// Upgrade runs E25: roll every node v1→v2 under live load.
func Upgrade(sc Scale) Result {
	c := sc.cluster("upgrade", cluster.Options{
		Topology:    fabric.SmallClos(),
		NICCfg:      chaosNIC(),
		Nodes:       upNodes,
		Config:      upgradeKnobs,
		RecoverPort: 7801,
	})
	eng := c.Eng

	// Streams: the full mesh (client = lower id) plus the elephant, which
	// rides its own tenant-bound channel 0→3 so rehydration can tell it
	// apart from the plain stream to the same peer.
	var streams []*upStream
	for k, p := range cluster.FullMeshPairs(upNodes) {
		streams = append(streams, &upStream{From: p[0], To: p[1], Tag: uint64(k + 1), l: newLedger()})
	}
	streams = append(streams, &upStream{From: 0, To: upNodes - 1, Tag: uint64(len(streams) + 1),
		Elephant: true, l: newLedger()})

	// Every node's echo handler delivers into the ledger of the stream the
	// request's tag names (tag k is streams[k-1]).
	echo := func(m *xrdma.Msg) {
		if len(m.Data) < 16 {
			m.Reply(nil, 8)
			return
		}
		streams[binary.LittleEndian.Uint64(m.Data)-1].l.deliver(binary.LittleEndian.Uint64(m.Data[8:]))
		m.Reply(m.Data[:16], 0)
	}

	// install wires one channel on node i: the echo handler always, and —
	// when this is a rehydrated client-side channel — the stream pointer
	// swap, so the live load resumes on the restarted instance's channel.
	install := func(node int, ch *xrdma.Channel) {
		ch.OnMessage(echo)
		for _, s := range streams {
			if s.From != node || c.Nodes[s.To].ID != ch.Peer {
				continue
			}
			if s.Elephant != (ch.TenantOf() != nil) {
				continue
			}
			s.ch = ch
		}
	}
	c.ListenAll(upPort, func(n *cluster.Node, ch *xrdma.Channel) {
		install(int(n.ID), ch)
	})

	// Classic (non-mux) channels: only those carry the per-channel QP
	// state the handoff blob serializes. The elephant binds its tenant so
	// rehydration can tell it apart from the plain 0→3 stream.
	pairs := make([][2]int, len(streams))
	for i, s := range streams {
		pairs[i] = [2]int{s.From, s.To}
	}
	for i, ch := range c.Establish(pairs, upPort) {
		if streams[i].Elephant {
			if err := ch.BindTenant("elephant"); err != nil {
				panic(fmt.Sprintf("upgrade: bind elephant tenant: %v", err))
			}
		}
		streams[i].ch = ch
	}

	// Live load: one id-stamped 16-byte request per tick per stream; the
	// elephant sends a 32 KiB rendezvous payload with the same header. A
	// stream pauses while its own client instance is draining (a balancer
	// would stop routing there), but keeps firing at draining SERVERS —
	// that in-flight traffic is what the drain deadline and the replay
	// tail must conserve.
	start := eng.Now()
	for _, s := range streams {
		every(eng, upTick, upSendStop, func() {
			if c.Nodes[s.From].Ctx.DrainPhase() != xrdma.DrainServing {
				return
			}
			id := s.nextID
			s.nextID++
			size := 0
			buf := make([]byte, 16)
			if s.Elephant {
				buf = make([]byte, upEleSize)
				size = upEleSize
			}
			binary.LittleEndian.PutUint64(buf, s.Tag)
			binary.LittleEndian.PutUint64(buf[8:], id)
			err := s.ch.SendMsg(buf, size, func(m *xrdma.Msg, err error) {
				if err != nil {
					return
				}
				s.l.respond(binary.LittleEndian.Uint64(m.Data[8:]))
			})
			if err != nil {
				s.Refused++
				return
			}
			s.l.send(id, nil)
		})
	}

	// Whole-cluster counters, summed over every instance that lived, and
	// the version probes' verdicts.
	var rehydrated, degraded, drainRefusals, verMismatches int64
	var midVer, finalVer, finalVerHi uint8
	var midCaps, finalCaps uint32

	// The rolling wave: drain → restart at ProtoVerMax=2 → re-listen →
	// rehydrate, one node per wave gap. Drained instances' counters are
	// harvested before Restart discards the old context.
	inj := chaos.New(c)
	var steps []chaos.Step
	for i := 0; i < upNodes; i++ {
		node := i
		steps = append(steps, chaos.Step{
			At:   upFirstAt + sim.Duration(node)*upWaveGap,
			Name: fmt.Sprintf("roll %d", node),
			Do: func(in *chaos.Injector) {
				old := c.Nodes[node].Ctx
				in.DrainRestart(node,
					func(cfg *xrdma.Config) { cfg.ProtoVerMax = 2 },
					func(ctx *xrdma.Context) {
						degraded += old.Stats.Degraded
						drainRefusals += old.Stats.DrainRefusals
						verMismatches += old.Stats.VerMismatches
						ctx.OnChannel(func(ch *xrdma.Channel) { install(node, ch) })
						if err := ctx.Listen(upPort); err != nil {
							panic(fmt.Sprintf("upgrade: re-listen node %d: %v", node, err))
						}
					})
			},
		})
	}
	inj.Schedule(steps)

	// Version probes: fresh channels negotiate from scratch, so they show
	// the live verdict of the moment — v1 while any end is legacy, v2
	// once both ends rolled.
	probe := func(from, to int, got func(ver uint8, caps uint32)) {
		c.Connect(from, to, upPort, func(ch *xrdma.Channel, err error) {
			if err != nil {
				panic(fmt.Sprintf("upgrade: probe %d->%d: %v", from, to, err))
			}
			got(ch.NegotiatedVersion(), ch.PeerCaps())
			ch.Close()
		})
	}
	eng.AfterBg(upMidAt, func() {
		probe(0, upNodes-1, func(v uint8, caps uint32) { midVer, midCaps = v, caps })
	})
	eng.AfterBg(upFinalAt, func() {
		probe(0, upNodes-1, func(v uint8, caps uint32) { finalVer, finalCaps = v, caps })
		probe(1, 2, func(v uint8, _ uint32) { finalVerHi = v })
	})

	eng.RunUntil(start.Add(upHorizon))

	t := Table{
		ID:     "E25/Upgrade",
		Title:  "Hot upgrade: rolling restart v1→v2 under live full-mesh load + background elephant",
		Header: []string{"stream", "sent", "refused", "resps", "dups", "lost"},
	}
	chaosLog := inj.Digest()
	digest := append([]string{}, chaosLog...)
	var claims []Claim
	unhealthy := 0
	for _, s := range streams {
		kind, name := "stream", fmt.Sprintf("%d->%d", s.From, s.To)
		if s.Elephant {
			kind = "elephant"
		}
		tl := s.l.settle()
		digest = append(digest, fmt.Sprintf("%s %s sent=%d refused=%d resps=%d resp_dups=%d dups=%d lost=%d",
			kind, name, tl.Sent, s.Refused, tl.Answered, tl.RespDups, tl.Dups, tl.Lost))
		// Conservation: the drain deadline, the handoff tail and the seq-ack
		// replay make a rolling restart invisible to the ledger. Refused
		// sends stay out of it: the drain refuses them by design.
		claims = append(claims, tl.claims("E25/"+kind+"-"+name, 1)...)
		if s.Elephant {
			name += " (elephant)"
		}
		t.Addf(name, tl.Sent, s.Refused, tl.Answered, tl.Dups, tl.Lost)
		if s.ch == nil || s.ch.Health() != xrdma.HealthHealthy {
			unhealthy++
		}
	}
	for _, n := range c.Nodes {
		rehydrated += n.Ctx.Stats.Rehydrated
		degraded += n.Ctx.Stats.Degraded
		drainRefusals += n.Ctx.Stats.DrainRefusals
		verMismatches += n.Ctx.Stats.VerMismatches
	}
	digest = append(digest, fmt.Sprintf("mid ver=%d caps=%#x final ver=%d/%d caps=%#x",
		midVer, midCaps, finalVer, finalVerHi, finalCaps))
	digest = append(digest, fmt.Sprintf("rehydrated=%d degraded=%d drain_refusals=%d ver_mismatches=%d unhealthy=%d",
		rehydrated, degraded, drainRefusals, verMismatches, unhealthy))

	t.Addf("versions", fmt.Sprintf("mid=%d", midVer), fmt.Sprintf("final=%d/%d", finalVer, finalVerHi),
		fmt.Sprintf("rehyd=%d", rehydrated), fmt.Sprintf("refus=%d", drainRefusals), fmt.Sprintf("mism=%d", verMismatches))
	t.Note("each node drains (ErrDraining refusals, in-flight completes), restarts at ProtoVerMax=2, rehydrates its handoff blob")
	t.Note("rehydrated channels keep their negotiated verdict (v1); fresh channels settle v1 mid-wave, v2 once both ends rolled")
	t.Note("conservation bar: zero lost, zero duplicate deliveries across every stream, elephant included")
	// A fresh channel dialed while node 3 was still legacy settles on v1,
	// after the wave on v2, and every pairing here has overlapping ranges.
	// The wave exercised the plane (channels rehydrated, peers degraded)
	// and recovery converged; the chaos log shows the waves completing.
	claims = append(claims,
		within("E25/mid-wave-ver", "1", float64(midVer), 1, 1),
		within("E25/post-wave-ver", "2", float64(finalVer), 2, 2),
		within("E25/post-wave-ver-1->2", "2", float64(finalVerHi), 2, 2),
		within("E25/ver-mismatches", "0", float64(verMismatches), 0, 0),
		within("E25/rehydrated", "handoff ran", float64(rehydrated), 1, inf),
		within("E25/degraded", "restarts bite", float64(degraded), 1, inf),
		within("E25/unhealthy", "0", float64(unhealthy), 0, 0))
	joined := strings.Join(chaosLog, "\n")
	for _, want := range []string{"node.drain 0", "node.upgrade 0", "node.drain 3", "node.upgrade 3"} {
		claims = append(claims, shape("E25/chaos-log/"+want, "logged", strings.Contains(joined, want)))
	}
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: claims}
}
