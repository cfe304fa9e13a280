package rnic

import (
	"slices"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// The transmit engine's timing contract (DESIGN §13.1): a WR's first packet
// leaves doorbellLatency + the QP context fetch + pktProcess after the
// doorbell, and each later one a pacing gap after the one before, the gap
// being the packet's wire bytes at the DCQCN rate in force when the pipeline
// built it, pktProcess before it left. The engine spends one event per packet.

const sendLen = 64 << 10 // 16 packets at MTU 4096

// gap is the pacing gap of one full packet (payload plus its 16 B header).
func gap(bps int64) sim.Duration { return sim.Duration(int64(mtu+16) * 8 * int64(sim.Second) / bps) }

// cutRate delivers one CNP to r.qa and returns its reaction point, cut to
// half line rate (alpha starts at 1).
func cutRate(t testing.TB, r *rig) *dcqcnState {
	t.Helper()
	r.b.sendCtrl(r.a.Node, hdr{Op: opCNP, DstQPN: r.qa.QPN})
	for r.qa.rate == nil && r.eng.Step() {
	}
	if rp := r.qa.rate; rp == nil || rp.rc != r.a.LineBps()/2 {
		t.Fatalf("the CNP did not cut the rate to half of %d: %+v", r.a.LineBps(), rp)
	}
	return r.qa.rate
}

// stampTap records the SentAt of every SEND packet arriving at its NIC.
type stampTap struct {
	n  *NIC
	at []sim.Time
}

func (s *stampTap) HandlePacket(p *fabric.Packet) {
	if h, ok := p.Payload.(*hdr); ok && h.Op == OpSend {
		s.at = append(s.at, p.SentAt)
	}
	s.n.HandlePacket(p)
}

func TestTransmitSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  bool // a CNP cut the QP's rate before the doorbell
		mid  int  // > 0: a cut lands between packet mid's build and its emission
	}{
		{name: "no-reaction-point"},
		{name: "dcqcn-cut", cut: true},
		{name: "cut-while-in-pipeline", mid: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, DefaultConfig())
			line, cut := gap(r.a.LineBps()), gap(r.a.LineBps()/2)
			g := line
			if tc.cut {
				cutRate(t, r)
				g = cut
			}
			// The doorbell's QP context fetch misses: nothing touched the QP yet.
			want := make([]sim.Time, sendLen/mtu)
			want[0] = r.eng.Now().Add(doorbellLatency + qpCacheMissCost + pktProcess)
			for k := 1; k < len(want); k++ {
				if tc.mid > 0 && k > tc.mid+1 {
					g = cut // packet mid was built before the cut, mid+1 after it
				}
				want[k] = want[k-1].Add(g)
			}
			if tc.mid > 0 {
				r.eng.At(want[tc.mid].Add(-pktProcess/2), func() { r.qa.reactionPoint().onCNP() })
			}
			tap := &stampTap{n: r.b}
			r.fab.Host(5).Attach(tap)
			postRecvN(t, r.qb, 1, sendLen)
			if err := r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: sendLen}); err != nil {
				t.Fatal(err)
			}
			r.eng.Run()
			if len(tap.at) != len(want) {
				t.Fatalf("%d packets arrived, want %d", len(tap.at), len(want))
			}
			for k := range want {
				if tap.at[k] != want[k] {
					t.Errorf("packet %d: SentAt %v, want %v", k, tap.at[k], want[k])
				}
			}
		})
	}
}

// TestOneStepPerPacket: the engine's only scheduled event fires once per
// packet, at the packet's emission instant.
func TestOneStepPerPacket(t *testing.T) {
	for _, cut := range []bool{false, true} {
		r := newRig(t, DefaultConfig())
		if cut {
			cutRate(t, r)
		}
		var steps, sent []sim.Time
		step := r.a.stepFn
		r.a.stepFn = func() { steps = append(steps, r.eng.Now()); step() }
		r.a.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
			if p.Class != fabric.ClassCtrl {
				sent = append(sent, r.eng.Now())
			}
			return false, 0
		}
		postRecvN(t, r.qb, 1, sendLen)
		if err := r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: sendLen}); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
		if len(sent) != sendLen/mtu || !slices.Equal(steps, sent) {
			t.Errorf("cut=%v: engine steps at %v, packets emitted at %v: want one step per packet, at its emission", cut, steps, sent)
		}
	}
}

// TestStepKilledBeforeItFires: a QP reset or a NIC crash between a step's
// scheduling and its firing emits nothing more, and every job goes home.
func TestStepKilledBeforeItFires(t *testing.T) {
	const sentBefore = 4
	for _, kill := range []string{"reset", "crash"} {
		t.Run(kill, func(t *testing.T) {
			r := newRig(t, DefaultConfig())
			postRecvN(t, r.qb, 1, sendLen)
			var job *txJob
			sent := 0
			r.a.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
				if p.Class == fabric.ClassCtrl {
					return false, 0
				}
				if sent++; sent == sentBefore {
					// The next step is scheduled a pacing gap ahead.
					r.eng.After(gap(r.a.LineBps())/2, func() {
						job = r.a.current
						if job == nil {
							t.Fatal("no job in the engine between two of its packets")
						}
						if kill == "crash" {
							r.a.Crash()
							return
						}
						if err := r.a.ModifyQPNow(r.qa, QPReset, 0, 0); err != nil {
							t.Fatal(err)
						}
						if !job.pooled || r.a.current != nil {
							t.Error("a reset left the current job out of the pool until the next step")
						}
					})
				}
				return false, 0
			}
			if err := r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: sendLen}); err != nil {
				t.Fatal(err)
			}
			r.eng.Run()
			if sent != sentBefore {
				t.Errorf("%d data packets left the NIC, want the %d before the %s", sent, sentBefore, kill)
			}
			if !job.pooled || r.a.current != nil || r.a.engineBusy || len(r.a.jobs) != 0 {
				t.Errorf("engine at rest: job pooled %v, current %v, busy %v, %d queued", job.pooled, r.a.current, r.a.engineBusy, len(r.a.jobs))
			}
			home := make(map[*txJob]bool)
			for _, j := range r.a.pool.jobs.Items() {
				if home[j] {
					t.Fatalf("job %p is on the free list twice", j)
				}
				home[j] = true
			}
			if !home[job] {
				t.Error("the killed job is not on the free list")
			}
		})
	}
}

// TestRTOFollowsLastProgress: the responder of a 64 KiB READ goes silent
// after k segments. The requester's RTO fires exactly RetransTimeout after
// the last segment it accepted — also when RetransTimeout is shorter than
// the transfer, so the deadline moved while its event was queued. A READ
// that completes never fires it.
func TestRTOFollowsLastProgress(t *testing.T) {
	for _, rto := range []sim.Duration{DefaultConfig().RetransTimeout, 10 * sim.Microsecond} {
		for _, k := range []int{1, 6, 0} { // 0: nothing is dropped
			cfg := DefaultConfig()
			cfg.RetransTimeout = rto
			r := newRig(t, cfg)
			src := r.b.Mem.Register(sendLen, RegNonContinuous)
			if k > 0 {
				r.b.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
					h, ok := p.Payload.(*hdr)
					return ok && h.Op == opReadResp && h.Offset >= k*mtu, 0
				}
			}
			var last sim.Time
			got := 0
			r.fab.Host(0).Attach(&tap{n: r.a, after: func(h hdr) {
				for _, st := range r.qa.pendingReads {
					if st.got != got {
						got, last = st.got, r.eng.Now()
					}
				}
				if h.Op == opReadResp && h.Last {
					got, last = sendLen, r.eng.Now()
				}
			}})
			if err := r.qa.PostSend(&SendWR{ID: 1, Op: OpRead, Len: sendLen, RAddr: src.Base, RKey: src.RKey}); err != nil {
				t.Fatal(err)
			}
			for r.a.Counters.Retransmits == 0 && r.eng.Step() {
			}
			switch {
			case k == 0 && (r.a.Counters.Retransmits != 0 || got != sendLen || r.qa.rtoEvent.Pending()):
				t.Errorf("rto=%v: a completed READ fired its RTO (%d retransmits, %d of %d bytes, RTO pending %v)",
					rto, r.a.Counters.Retransmits, got, sendLen, r.qa.rtoEvent.Pending())
			case k > 0 && got != k*mtu:
				t.Errorf("rto=%v k=%d: %d bytes accepted before the RTO, want %d", rto, k, got, k*mtu)
			case k > 0 && r.eng.Now() != last.Add(rto):
				t.Errorf("rto=%v k=%d: RTO fired at %v, want %v after the last accepted segment at %v",
					rto, k, r.eng.Now(), rto, last)
			}
		}
	}
}

// BenchmarkPacedSend is incast's per-packet path: a DCQCN-cut QP sends
// 64 KiB (16 packets paced at half line rate) into a posted receive. Gated
// in CI at 0 allocs/op; it reports the engine events each packet costs end
// to end (its step, its link hops, its share of acks and completions).
func BenchmarkPacedSend(b *testing.B) {
	r := newRig(b, DefaultConfig())
	rp := cutRate(b, r)
	rc := rp.rc
	rp.stop() // no increase timer, no decay event: the cut rate holds
	var wr SendWR
	var cqes []CQE
	fired, pkts := r.eng.Fired(), r.a.Counters.PktsSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.rc = rc // the byte counter's increase may have raised it
		if err := r.qb.PostRecv(RecvWR{ID: uint64(i), Len: sendLen}); err != nil {
			b.Fatal(err)
		}
		wr = SendWR{ID: uint64(i), Op: OpSend, Len: sendLen}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qb.RecvCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || cqes[0].WRID != uint64(i) {
			b.Fatalf("iteration %d: recv CQEs %+v", i, cqes)
		}
		r.qa.SendCQ.PollAppend(cqes[:0], 4)
	}
	b.ReportMetric(float64(r.eng.Fired()-fired)/float64(r.a.Counters.PktsSent-pkts), "events/pkt")
}
