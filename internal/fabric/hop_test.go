package fabric

import (
	"slices"
	"testing"

	"xrdma/internal/sim"
)

// The hop model (DESIGN §6.1): a port acts on a frame at one instant, its
// dequeue; the end of serialization is an event only when a frame is waiting
// for the port; a switch acts on a packet at one instant, switchDelay after
// the wire. A 64 B frame is 126 B on the wire: 40 ns at 25 Gbps, 10 ns at
// 100 Gbps.
const (
	ser64Host = 40 * sim.Nanosecond
	frame64   = 64 + EthOverhead
)

// TestHopEvents pins what the model fires and when. The arrival instants are
// the ones the three-events-per-hop model produced (measured on it before it
// went): eliding events must not move an uncongested frame by a nanosecond.
func TestHopEvents(t *testing.T) {
	t.Run("idle fabric: one event per link", func(t *testing.T) {
		crossPod := Topology{Pods: 2, LeavesPerPod: 2, TorsPerPod: 2, HostsPerTor: 2}
		for _, c := range []struct {
			name   string
			top    Topology
			dst    NodeID
			at     sim.Time
			events uint64
		}{
			{"same-ToR", SmallClos(), 1, 780, 2},
			{"cross-ToR", SmallClos(), 5, 2400, 4},
			{"cross-pod", crossPod, 7, 4020, 6},
		} {
			eng := sim.NewEngine()
			f := New(eng, DefaultConfig(), 1)
			BuildClos(f, c.top)
			s := &sink{eng: eng}
			f.Host(c.dst).Attach(s)
			f.Host(0).Send(&Packet{Src: 0, Dst: c.dst, Size: 64, FlowHash: 3, ECT: true})
			eng.Run()
			if len(s.times) != 1 || s.times[0] != c.at || eng.Fired() != c.events {
				t.Errorf("%s: arrived %v after %d events, want [%v] after %d", c.name, s.times, eng.Fired(), c.at, c.events)
			}
		}
	})

	t.Run("two frames at one instant: one kick between them", func(t *testing.T) {
		eng, f, sinks := buildSmall(t, DefaultConfig())
		pt := f.Host(0).port
		f.Host(0).Send(&Packet{Src: 0, Dst: 5, Size: 64, FlowHash: 3, ECT: true})
		if pt.kickArmed || pt.busyUntil != sim.Time(ser64Host) {
			t.Fatalf("first frame: kickArmed=%v busyUntil=%v, want an unarmed port busy until %v", pt.kickArmed, pt.busyUntil, ser64Host)
		}
		f.Host(0).Send(&Packet{Src: 0, Dst: 5, Size: 64, FlowHash: 3, ECT: true})
		if !pt.kickArmed || eng.Pending() != 2 {
			t.Fatalf("second frame: kickArmed=%v with %d events pending, want one arrival and one kick", pt.kickArmed, eng.Pending())
		}
		eng.Run()
		// Eight arrivals and the host port's kick: every later port is
		// idle again by the time the second frame reaches it.
		if got := sinks[5].times; len(got) != 2 || got[0] != 2400 || got[1] != got[0].Add(ser64Host) || eng.Fired() != 9 {
			t.Fatalf("arrived %v after %d events, want [2.4µs 2.44µs] after 9", got, eng.Fired())
		}
	})

	// A send on the very nanosecond the wire frees up, on a ToR egress port
	// whose frames hold ingress cells. A and B are enqueued at t0 (B waits,
	// one kick armed at t0+40); C arrives at t0+40 before the armed kick
	// fires, after it, or — with no B — with nothing armed at all. Whatever
	// dequeues B, B starts at t0+40 and C one frame later, no cell leaks
	// and there is never a second kick in the heap.
	for _, c := range []struct {
		name        string
		withB       bool
		cBeforeKick bool
		events      uint64
	}{
		{"send at busyUntil before the armed kick", true, true, 7},
		{"send at busyUntil after the armed kick", true, false, 7},
		{"send at busyUntil of an unwatched frame", false, false, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, f, sinks := buildSmall(t, DefaultConfig())
			in, out := f.Host(0).port.peer, f.Host(1).port.peer
			const t0 = sim.Time(1000)
			enqueue := func() {
				p := &Packet{Src: 0, Dst: 1, Size: 64, FlowHash: 3, ECT: true}
				in.accountIngress(p)
				out.send(p)
			}
			if c.cBeforeKick {
				eng.At(t0.Add(ser64Host), enqueue) // scheduled first: fires before the kick armed below
			}
			eng.At(t0, func() {
				enqueue()
				if c.withB {
					enqueue()
				}
				if !c.cBeforeKick {
					eng.At(t0.Add(ser64Host), enqueue)
				}
			})
			eng.RunUntil(t0.Add(ser64Host))
			want := []sim.Time{t0.Add(ser64Host + 200)}
			if c.withB {
				want = append(want, want[0].Add(ser64Host))
				// B on the wire, C behind it, A and B in flight: two
				// arrivals and exactly one kick.
				if out.busyUntil != t0.Add(2*ser64Host) || out.dataQ.Len() != 1 || !out.kickArmed || eng.Pending() != 3 {
					t.Fatalf("at busyUntil: busy until %v, %d queued, kickArmed=%v, %d pending; want %v, 1, true, 3",
						out.busyUntil, out.dataQ.Len(), out.kickArmed, eng.Pending(), t0.Add(2*ser64Host))
				}
				if in.ingressBytes != frame64 {
					t.Fatalf("ingress holds %d bytes with one frame queued, want %d", in.ingressBytes, frame64)
				}
			}
			want = append(want, want[len(want)-1].Add(ser64Host))
			eng.Run()
			if got := sinks[1].times; !slices.Equal(got, want) {
				t.Fatalf("arrived %v, want %v", got, want)
			}
			if eng.Fired() != c.events || out.kickArmed || in.ingressBytes != 0 {
				t.Fatalf("%d events, kickArmed=%v, %d ingress bytes left; want %d, false, 0", eng.Fired(), out.kickArmed, in.ingressBytes, c.events)
			}
		})
	}

	t.Run("down while serializing delivers; up before busyUntil does not start early", func(t *testing.T) {
		eng, f, sinks := buildSmall(t, DefaultConfig())
		h := f.Host(0)
		h.Send(&Packet{Src: 0, Dst: 1, Size: 64, FlowHash: 3, ECT: true})
		eng.At(10, h.port.setDown)
		eng.At(20, h.port.setUp)
		eng.At(30, func() { h.Send(&Packet{Src: 0, Dst: 1, Size: 64, FlowHash: 3, ECT: true}) })
		eng.Run()
		if got := sinks[1].times; len(got) != 2 || got[0] != 780 || got[1] != got[0].Add(ser64Host) || f.Stats.Drops != 0 {
			t.Fatalf("arrived %v with %d drops, want [780ns 820ns] and none", got, f.Stats.Drops)
		}
	})

	t.Run("paused data: control passes, nothing is armed for what cannot go", func(t *testing.T) {
		eng, f, sinks := buildSmall(t, DefaultConfig())
		h, tor := f.Host(0), f.Host(0).port.peer
		data := func() { h.Send(&Packet{Src: 0, Dst: 1, Size: 64, FlowHash: 3, ECT: true}) }
		ctrl := func() { h.Send(&Packet{Src: 0, Dst: 1, Size: 16, FlowHash: 3, Class: ClassCtrl}) }
		const serCtrl = 24 * sim.Nanosecond // 78 B at 25 Gbps
		tor.sendPFC(true)
		eng.RunUntil(300)
		if !h.port.paused {
			t.Fatal("pause frame did not land after one propagation delay")
		}
		data()
		if h.port.kickArmed || eng.Pending() != 0 {
			t.Fatalf("paused data armed a kick (%v) or scheduled something (%d pending)", h.port.kickArmed, eng.Pending())
		}
		ctrl()
		if h.port.kickArmed || eng.Pending() != 1 {
			t.Fatalf("behind a control frame only paused data waits: kickArmed=%v, %d pending, want false and the one arrival", h.port.kickArmed, eng.Pending())
		}
		eng.Run()
		if got := sinks[1].got; len(got) != 1 || got[0].Class != ClassCtrl || h.port.dataQ.Len() != 1 {
			t.Fatalf("delivered %d frames with %d data queued, want the control frame and 1", len(got), h.port.dataQ.Len())
		}
		// The resume lands at 2200 into a port serializing a control frame
		// since 2190: it arms the one kick, and the data leaves at 2214.
		eng.At(2000, func() { tor.sendPFC(false) })
		eng.At(2190, ctrl)
		eng.RunUntil(2200)
		if h.port.paused || !h.port.kickArmed || h.port.busyUntil != sim.Time(2190).Add(serCtrl) {
			t.Fatalf("resume into a busy port: paused=%v kickArmed=%v busyUntil=%v", h.port.paused, h.port.kickArmed, h.port.busyUntil)
		}
		eng.Run()
		wantData := sim.Time(2190).Add(serCtrl + ser64Host + 200 + 300 + ser64Host + 200)
		if n := len(sinks[1].times); n != 3 || sinks[1].times[2] != wantData {
			t.Fatalf("arrived %v, want the data frame last at %v", sinks[1].times, wantData)
		}
	})
}

// pfcBurst is TestPFCPreventsDrops' incast: three hosts blast host 0 through
// tiny buffers, run to quiescence.
func pfcBurst(t *testing.T) (f *Fabric, delivered, sent int) {
	cfg := DefaultConfig()
	cfg.EgressCap = 64 << 10 // tiny buffers
	cfg.PFCXoff = 32 << 10
	cfg.PFCXon = 16 << 10
	eng, f, sinks := buildSmall(t, cfg)
	const n = 500
	for src := 1; src <= 3; src++ {
		for i := 0; i < n; i++ {
			src, i := src, i
			eng.At(sim.Time(i)*sim.Time(200*sim.Nanosecond), func() {
				f.Host(NodeID(src)).Send(&Packet{Src: NodeID(src), Dst: 0, Size: 4096, FlowHash: uint64(src*1000 + i), ECT: true})
			})
			sent++
		}
	}
	eng.Run()
	return f, len(sinks[0].got), sent
}

// TestPFCIngressConserved: cells are charged at a switch's one instant and
// freed at dequeue, frame by frame, with nothing per-frame parked on a port —
// so once the burst has drained every ingress reads zero and no port is left
// having paused its peer.
func TestPFCIngressConserved(t *testing.T) {
	f, delivered, sent := pfcBurst(t)
	if delivered != sent || f.Stats.PauseTX == 0 {
		t.Fatalf("delivered %d of %d with %d pauses: not the burst this test is about", delivered, sent, f.Stats.PauseTX)
	}
	f.devicePorts(func(owner string, pt *Port) {
		if pt.ingressBytes != 0 || pt.pauseSent || pt.paused || pt.kickArmed || pt.qlen != 0 {
			t.Errorf("%s→%s at rest: ingressBytes=%d pauseSent=%v paused=%v kickArmed=%v qlen=%d",
				owner, pt.peer.owner.name(), pt.ingressBytes, pt.pauseSent, pt.paused, pt.kickArmed, pt.qlen)
		}
	})
}

// countSink counts deliveries without keeping anything.
type countSink struct{ n int }

func (s *countSink) HandlePacket(*Packet) { s.n++ }

// BenchmarkFabricHop is one 64 B frame cross-ToR (four links) on a warmed
// fabric: the per-packet cost every workload pays under everything else.
// Contract (CI kernel-bench gate): 0 allocs/op; and it fails outright above
// one event per link.
func BenchmarkFabricHop(b *testing.B) {
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig(), 1)
	BuildClos(f, SmallClos())
	s := &countSink{}
	f.Host(5).Attach(s)
	send := func() {
		p := f.NewPacket()
		p.Src, p.Dst, p.Size, p.FlowHash, p.ECT = 0, 5, 64, 1, true
		f.Host(0).Send(p)
		eng.Run()
	}
	send() // warm the packet free-list, its closure and the event pool
	b.ReportAllocs()
	b.ResetTimer()
	fired := eng.Fired()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	perOp := float64(eng.Fired()-fired) / float64(b.N)
	b.ReportMetric(perOp, "events/op")
	if perOp > 4 || s.n != b.N+1 {
		b.Fatalf("%.2f events/op (budget 4: one per link), %d of %d delivered", perOp, s.n, b.N+1)
	}
}
