package rnic

import (
	"bytes"
	"reflect"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// rig is a two-host harness over a small clos fabric.
type rig struct {
	eng    *sim.Engine
	fab    *fabric.Fabric
	a, b   *NIC
	qa, qb *QP
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), cfg)
	b := New(eng, fab.Host(5), cfg) // cross-ToR path
	qa, qb := ConnectLoopback(a, b, 128)
	return &rig{eng: eng, fab: fab, a: a, b: b, qa: qa, qb: qb}
}

func postRecvN(t testing.TB, qp *QP, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := qp.PostRecv(RecvWR{ID: uint64(i), Len: size}); err != nil {
			t.Fatalf("PostRecv: %v", err)
		}
	}
}

func TestSendRecvSmall(t *testing.T) {
	r := newRig(t, DefaultConfig())
	postRecvN(t, r.qb, 1, 4096)
	payload := []byte("hello rdma world")
	if err := r.qa.PostSend(&SendWR{ID: 7, Op: OpSend, Len: len(payload), Data: payload}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	got := r.qb.RecvCQ.Poll(10)
	if len(got) != 1 {
		t.Fatalf("recv CQEs = %d, want 1", len(got))
	}
	if got[0].Status != StatusOK || got[0].Len != len(payload) || !bytes.Equal(got[0].Data, payload) {
		t.Fatalf("bad recv CQE: %+v", got[0])
	}
	sc := r.qa.SendCQ.Poll(10)
	if len(sc) != 1 || sc[0].WRID != 7 || sc[0].Status != StatusOK {
		t.Fatalf("bad send CQE: %+v", sc)
	}
}

func TestSendLatencyCalibration(t *testing.T) {
	r := newRig(t, DefaultConfig())
	postRecvN(t, r.qb, 1, 4096)
	var done sim.Time
	r.qb.RecvCQ.OnCompletion(func() { done = r.eng.Now() })
	r.qa.PostSend(&SendWR{Op: OpSend, Len: 64})
	r.eng.Run()
	lat := sim.Duration(done)
	// One-way small message on quiet fabric: ~1.5–4 µs.
	if lat < 1*sim.Microsecond || lat > 5*sim.Microsecond {
		t.Fatalf("64B one-way latency %v outside [1µs, 5µs]", lat)
	}
}

func TestMultiPacketSend(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	postRecvN(t, r.qb, 1, 64<<10)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: len(payload), Data: payload})
	r.eng.Run()
	got := r.qb.RecvCQ.Poll(10)
	if len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatalf("multi-packet payload corrupted (got %d CQEs)", len(got))
	}
	if r.a.Counters.PktsSent < 5 {
		t.Fatalf("expected ≥5 packets for 20000B at MTU 4096, sent %d", r.a.Counters.PktsSent)
	}
	if asms := &r.b.pool.asms; asms.Live() == 0 {
		t.Fatal("a multi-packet SEND assembled nothing")
	} else {
		atRest(t, "assemblies", asms)
	}
}

func TestSendImm(t *testing.T) {
	r := newRig(t, DefaultConfig())
	postRecvN(t, r.qb, 1, 4096)
	r.qa.PostSend(&SendWR{Op: OpSendImm, Len: 8, Imm: 0xdeadbeef})
	r.eng.Run()
	got := r.qb.RecvCQ.Poll(1)
	if len(got) != 1 || !got[0].HasImm || got[0].Imm != 0xdeadbeef {
		t.Fatalf("immediate lost: %+v", got)
	}
}

func TestWriteIntoMR(t *testing.T) {
	r := newRig(t, DefaultConfig())
	mr := r.b.Mem.Register(8192, RegNonContinuous)
	payload := []byte("one-sided write payload")
	r.qa.PostSend(&SendWR{ID: 2, Op: OpWrite, Len: len(payload), Data: payload,
		RAddr: mr.Base + 100, RKey: mr.RKey})
	r.eng.Run()
	if !bytes.Equal(mr.Slice(mr.Base+100, len(payload)), payload) {
		t.Fatal("write did not land in remote MR")
	}
	// Plain write must be invisible to the receiver application.
	if r.qb.RecvCQ.Len() != 0 {
		t.Fatal("plain WRITE raised a receive CQE")
	}
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusOK {
		t.Fatalf("write completion missing: %+v", sc)
	}
}

func TestWriteImmConsumesRecvWR(t *testing.T) {
	r := newRig(t, DefaultConfig())
	mr := r.b.Mem.Register(4096, RegNonContinuous)
	postRecvN(t, r.qb, 1, 0)
	r.qa.PostSend(&SendWR{Op: OpWriteImm, Len: 16, RAddr: mr.Base, RKey: mr.RKey, Imm: 42})
	r.eng.Run()
	got := r.qb.RecvCQ.Poll(1)
	if len(got) != 1 || got[0].Imm != 42 || !got[0].HasImm {
		t.Fatalf("WriteImm CQE missing: %+v", got)
	}
	if r.qb.RecvQueueLen() != 0 {
		t.Fatal("WriteImm did not consume the recv WQE")
	}
}

func TestZeroByteWrite(t *testing.T) {
	// The keepalive probe: zero-byte RDMA Write needs no rkey, no recv
	// WQE, no receiver CPU — just a hardware ack.
	r := newRig(t, DefaultConfig())
	r.qa.PostSend(&SendWR{ID: 3, Op: OpWrite, Len: 0})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusOK {
		t.Fatalf("zero-byte write not acked: %+v", sc)
	}
	if r.qb.RecvCQ.Len() != 0 {
		t.Fatal("zero-byte write woke the receiver")
	}
}

func TestReadFetchesRemote(t *testing.T) {
	r := newRig(t, DefaultConfig())
	mr := r.b.Mem.Register(64<<10, RegNonContinuous)
	want := make([]byte, 10000)
	for i := range want {
		want[i] = byte(i ^ 0x5a)
	}
	copy(mr.Slice(mr.Base, len(want)), want)
	lmr := r.a.Mem.Register(64<<10, RegNonContinuous)
	r.qa.PostSend(&SendWR{ID: 4, Op: OpRead, Len: len(want), Local: lmr.Base,
		RAddr: mr.Base, RKey: mr.RKey})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusOK {
		t.Fatalf("read completion: %+v", sc)
	}
	if !bytes.Equal(sc[0].Data, want) {
		t.Fatal("read data mismatch in CQE")
	}
	if !bytes.Equal(lmr.Slice(lmr.Base, len(want)), want) {
		t.Fatal("read data not scattered to local MR")
	}
	if r.qb.RecvCQ.Len() != 0 || r.qb.SendCQ.Len() != 0 {
		t.Fatal("READ involved responder CQs")
	}
}

func TestRKeyViolationBreaksQP(t *testing.T) {
	r := newRig(t, DefaultConfig())
	mr := r.b.Mem.Register(4096, RegNonContinuous)
	// Out of bounds by one byte.
	r.qa.PostSend(&SendWR{ID: 5, Op: OpWrite, Len: 100, RAddr: mr.Base + 4000, RKey: mr.RKey})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusRemoteAccessErr {
		t.Fatalf("expected remote access error, got %+v", sc)
	}
	if r.qa.State != QPError {
		t.Fatalf("requester QP state = %v, want ERROR", r.qa.State)
	}
	if r.b.Counters.AccessErrors == 0 {
		t.Fatal("responder did not count the access error")
	}
}

func TestBadRKey(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.qa.PostSend(&SendWR{Op: OpWrite, Len: 8, RAddr: 0x1000, RKey: 9999})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusRemoteAccessErr {
		t.Fatalf("expected access error for bad rkey, got %+v", sc)
	}
}

func TestRNRNakAndRecovery(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// No recv buffer: first send hits RNR; post a buffer before the
	// retry fires and the message must still arrive.
	r.qa.PostSend(&SendWR{ID: 6, Op: OpSend, Len: 32})
	r.eng.RunFor(20 * sim.Microsecond)
	if r.b.Counters.RNRNakSent == 0 {
		t.Fatal("no RNR NAK generated")
	}
	postRecvN(t, r.qb, 1, 4096)
	r.eng.Run()
	if got := r.qb.RecvCQ.Poll(1); len(got) != 1 || got[0].Status != StatusOK {
		t.Fatalf("message lost after RNR recovery: %+v", got)
	}
	if sc := r.qa.SendCQ.Poll(1); len(sc) != 1 || sc[0].Status != StatusOK {
		t.Fatalf("sender completion after RNR: %+v", sc)
	}
	if r.a.Counters.RNRNakRecv == 0 {
		t.Fatal("sender did not count RNR")
	}
}

func TestRNRRetryExhaustionBreaksQP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNRRetryLimit = 3
	r := newRig(t, cfg)
	r.qa.PostSend(&SendWR{Op: OpSend, Len: 32})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusRNRRetryExceeded {
		t.Fatalf("expected RNR retry exhaustion, got %+v", sc)
	}
	if r.qa.State != QPError {
		t.Fatal("QP should be in ERROR after RNR exhaustion")
	}
}

func TestDropRecoveryViaNak(t *testing.T) {
	r := newRig(t, DefaultConfig())
	postRecvN(t, r.qb, 4, 64<<10)
	// Drop the 3rd data packet once.
	dropped := false
	r.a.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
		h, ok := p.Payload.(*hdr)
		if ok && h.Op == OpSend && h.Offset == 2*4096 && !dropped {
			dropped = true
			return true, 0
		}
		return false, 0
	}
	payload := make([]byte, 16<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.qa.PostSend(&SendWR{ID: 9, Op: OpSend, Len: len(payload), Data: payload})
	r.eng.Run()
	if !dropped {
		t.Fatal("fault hook never fired")
	}
	got := r.qb.RecvCQ.Poll(1)
	if len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatal("payload not recovered after drop")
	}
	if r.b.Counters.SeqNakSent == 0 {
		t.Fatal("receiver never NAKed the gap")
	}
}

func TestRTORecoveryWhenAckLost(t *testing.T) {
	r := newRig(t, DefaultConfig())
	postRecvN(t, r.qb, 2, 4096)
	// Drop every ack once so the sender must RTO-retransmit.
	drops := 0
	r.b.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
		h, ok := p.Payload.(*hdr)
		if ok && h.Op == opAck && drops < 3 {
			drops++
			return true, 0
		}
		return false, 0
	}
	r.qa.PostSend(&SendWR{ID: 10, Op: OpSend, Len: 128})
	r.eng.Run()
	if sc := r.qa.SendCQ.Poll(1); len(sc) != 1 || sc[0].Status != StatusOK {
		t.Fatalf("send never completed after ack loss: %+v", sc)
	}
	if r.a.Counters.Retransmits == 0 {
		t.Fatal("no RTO retransmission counted")
	}
}

func TestCrashCausesRetryExceeded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryLimit = 3
	r := newRig(t, cfg)
	postRecvN(t, r.qb, 1, 4096)
	r.b.Crash()
	r.qa.PostSend(&SendWR{ID: 11, Op: OpWrite, Len: 0})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(1)
	if len(sc) != 1 || sc[0].Status != StatusRetryExceeded {
		t.Fatalf("expected retry-exceeded after crash, got %+v", sc)
	}
	if r.qa.State != QPError {
		t.Fatal("QP should break after peer crash")
	}
}

func TestSQFullRejected(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	b := New(eng, fab.Host(1), DefaultConfig())
	qa, _ := ConnectLoopback(a, b, 4)
	for i := 0; i < 4; i++ {
		if err := qa.PostSend(&SendWR{Op: OpWrite, Len: 1 << 20}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := qa.PostSend(&SendWR{Op: OpWrite, Len: 64}); err != ErrSQFull {
		t.Fatalf("expected ErrSQFull, got %v", err)
	}
}

func TestPostSendWrongState(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	qp := a.AllocQPNow(8, 8, NewCQ(16), NewCQ(16), nil)
	if err := qp.PostSend(&SendWR{Op: OpSend, Len: 8}); err == nil {
		t.Fatal("PostSend in RESET should fail")
	}
}

func TestQPStateMachine(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	qp := a.AllocQPNow(8, 8, NewCQ(16), NewCQ(16), nil)
	if err := a.ModifyQPNow(qp, QPRTS, 0, 0); err == nil {
		t.Fatal("RESET → RTS must be rejected")
	}
	if err := a.ModifyQPNow(qp, QPInit, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.ModifyQPNow(qp, QPInit, 0, 0); err == nil {
		t.Fatal("INIT → INIT must be rejected")
	}
	if err := a.ModifyQPNow(qp, QPRTR, 1, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.ModifyQPNow(qp, QPRTS, 0, 0); err != nil {
		t.Fatal(err)
	}
	if qp.RemoteQPN != 99 {
		t.Fatal("RTR did not wire the remote")
	}
	// Any state → RESET, reusable afterwards.
	if err := a.ModifyQPNow(qp, QPReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	if qp.State != QPReset || qp.RemoteQPN != 0 {
		t.Fatal("reset did not clear state")
	}
	if err := a.ModifyQPNow(qp, QPInit, 0, 0); err != nil {
		t.Fatalf("recycled QP must accept INIT: %v", err)
	}
}

// TestRecycledQPKeepsRQStorage: RESET empties the receive queue — a recycled
// QP starts with nothing posted and no stale WR left in a slot — but keeps the
// storage, so posting as deep again allocates nothing.
func TestRecycledQPKeepsRQStorage(t *testing.T) {
	a := newRig(t, DefaultConfig()).a
	qp := a.AllocQPNow(8, 48, NewCQ(16), NewCQ(16), nil)
	fill := func() {
		if err := a.ModifyQPNow(qp, QPInit, 0, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 48; i++ {
			if err := qp.PostRecv(RecvWR{ID: uint64(i + 1), Addr: 0x1000, Len: 64}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if err := a.ModifyQPNow(qp, QPReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	if qp.RecvQueueLen() != 0 {
		t.Fatalf("recycled QP starts with %d receive WRs posted", qp.RecvQueueLen())
	}
	fill()
	for i, wr := range qp.rq.Items() {
		if wr.ID != uint64(i+1) {
			t.Fatalf("slot %d holds WR %d after a refill: a stale WR survived RESET", i, wr.ID)
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := a.ModifyQPNow(qp, QPReset, 0, 0); err != nil {
			t.Fatal(err)
		}
		fill()
	}); got != 0 {
		t.Fatalf("RESET + refill allocates %.1f per cycle, want 0", got)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	r := newRig(t, DefaultConfig())
	const n = 120
	postRecvN(t, r.qb, 120, 4096)
	for i := 0; i < n; i++ {
		r.qa.PostSend(&SendWR{ID: uint64(i), Op: OpSendImm, Len: 200, Imm: uint32(i)})
	}
	r.eng.Run()
	got := r.qb.RecvCQ.Poll(n + 10)
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, c := range got {
		if c.Imm != uint32(i) {
			t.Fatalf("message %d out of order (imm %d)", i, c.Imm)
		}
	}
	if r.qa.Counters.MsgsSent != n || r.qb.Counters.MsgsRecv != n {
		t.Fatalf("counters: sent %d recv %d", r.qa.Counters.MsgsSent, r.qb.Counters.MsgsRecv)
	}
}

func TestUnsignaledNoCQE(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.qa.PostSend(&SendWR{Op: OpWrite, Len: 0, Unsignaled: true})
	r.eng.Run()
	if r.qa.SendCQ.Len() != 0 {
		t.Fatal("unsignaled WR produced a CQE")
	}
}

func TestQPCacheCounters(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	b := New(eng, fab.Host(1), DefaultConfig())
	a.cache.cap, b.cache.cap = 2, 2
	// 4 QPs through a 2-entry cache, round-robin → steady misses.
	qps := make([]*QP, 4)
	for i := range qps {
		qps[i], _ = ConnectLoopback(a, b, 16)
	}
	for round := 0; round < 10; round++ {
		for _, qp := range qps {
			qp.PostSend(&SendWR{Op: OpWrite, Len: 0, Unsignaled: true})
		}
		eng.Run()
	}
	if a.Counters.QPCacheMisses < 20 {
		t.Fatalf("expected heavy cache misses, got %d", a.Counters.QPCacheMisses)
	}
	// One hot QP should hit.
	h0, m0 := a.Counters.QPCacheHits, a.Counters.QPCacheMisses
	for i := 0; i < 10; i++ {
		qps[0].PostSend(&SendWR{Op: OpWrite, Len: 0, Unsignaled: true})
		eng.Run()
	}
	if a.Counters.QPCacheMisses-m0 > 1 {
		t.Fatalf("hot QP missing: %d new misses", a.Counters.QPCacheMisses-m0)
	}
	if a.Counters.QPCacheHits == h0 {
		t.Fatal("hot QP never hit the cache")
	}
}

// A restarted NIC flushes its QPs in ascending QPN order, so QPs that share
// a send CQ leave their flushed completions on it in that order, whatever
// order the work was posted in — the same on every restart.
func TestRestartFlushesInQPNOrder(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	b := New(eng, fab.Host(5), DefaultConfig())
	sendCQ := NewCQ(16)
	qps, peers := make([]*QP, 3), make([]*QP, 3)
	for i := range qps {
		qps[i] = a.AllocQPNow(16, 16, sendCQ, NewCQ(16), nil)
		peers[i] = b.AllocQPNow(16, 16, NewCQ(16), NewCQ(16), nil)
		for _, step := range []QPState{QPInit, QPRTR, QPRTS} {
			if err := b.ModifyQPNow(peers[i], step, a.Node, qps[i].QPN); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for i, qp := range qps {
			for _, step := range []QPState{QPInit, QPRTR, QPRTS} {
				if err := a.ModifyQPNow(qp, step, b.Node, peers[i].QPN); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, i := range []int{2, 0, 1} {
			if err := qps[i].PostSend(&SendWR{ID: uint64(i), Op: OpWrite, Len: 0}); err != nil {
				t.Fatal(err)
			}
		}
		a.Crash()
		a.Restart()
		got := sendCQ.Poll(16)
		if len(got) != len(qps) {
			t.Fatalf("round %d: %d flushed completions, want %d", round, len(got), len(qps))
		}
		for i, cqe := range got {
			if cqe.QPN != qps[i].QPN || cqe.Status != StatusFlushed {
				t.Fatalf("round %d: completion %d is QPN %d (%v), want QPN %d flushed", round, i, cqe.QPN, cqe.Status, qps[i].QPN)
			}
		}
		eng.Run()
		if sendCQ.Len() != 0 {
			t.Fatalf("round %d: %d completions after the flush", round, sendCQ.Len())
		}
	}
}

func TestSRQSharing(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	b := New(eng, fab.Host(1), DefaultConfig())
	srq := NewSRQ(64)
	recvCQ := NewCQ(64)
	// Two QPs on b share the SRQ.
	var bqs []*QP
	var aqs []*QP
	for i := 0; i < 2; i++ {
		qa := a.AllocQPNow(16, 16, NewCQ(32), NewCQ(32), nil)
		qb := b.AllocQPNow(16, 16, NewCQ(32), recvCQ, srq)
		for _, st := range []QPState{QPInit, QPRTR, QPRTS} {
			a.ModifyQPNow(qa, st, b.Node, qb.QPN)
			b.ModifyQPNow(qb, st, a.Node, qa.QPN)
		}
		aqs = append(aqs, qa)
		bqs = append(bqs, qb)
	}
	for i := 0; i < 4; i++ {
		srq.Post(RecvWR{ID: uint64(i), Len: 4096})
	}
	aqs[0].PostSend(&SendWR{Op: OpSend, Len: 10})
	aqs[1].PostSend(&SendWR{Op: OpSend, Len: 10})
	eng.Run()
	if recvCQ.Len() != 2 {
		t.Fatalf("SRQ delivered %d messages, want 2", recvCQ.Len())
	}
	if srq.Len() != 2 {
		t.Fatalf("SRQ has %d buffers left, want 2", srq.Len())
	}
	// PostRecv on an SRQ-bound QP must fail.
	if err := bqs[0].PostRecv(RecvWR{}); err == nil {
		t.Fatal("PostRecv on SRQ-bound QP should fail")
	}
	// Exhaust the SRQ → RNR.
	aqs[0].PostSend(&SendWR{Op: OpSend, Len: 10})
	aqs[0].PostSend(&SendWR{Op: OpSend, Len: 10})
	aqs[1].PostSend(&SendWR{Op: OpSend, Len: 10})
	eng.RunFor(30 * sim.Microsecond)
	if b.Counters.RNRNakSent == 0 {
		t.Fatal("exhausted SRQ should RNR")
	}
}

// TestSRQLimitEvent holds SRQ.Arm to ibv_modify_srq's contract, driven by real
// sends consuming through a QP: silent while the consumes leave the limit or
// more posted, fired by the one that leaves fewer — from inside that consume,
// with no engine event of its own — once, silent until armed again, unmoved by
// Post, due at the next consume when armed below the limit, and gone with the
// posted WQEs at Flush.
func TestSRQLimitEvent(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0), DefaultConfig())
	b := New(eng, fab.Host(1), DefaultConfig())
	srq := NewSRQ(64)
	qa := a.AllocQPNow(64, 16, NewCQ(128), NewCQ(32), nil)
	qb := b.AllocQPNow(16, 16, NewCQ(32), NewCQ(128), srq)
	for _, st := range []QPState{QPInit, QPRTR, QPRTS} {
		a.ModifyQPNow(qa, st, b.Node, qb.QPN)
		b.ModifyQPNow(qb, st, a.Node, qa.QPN)
	}
	post := func(n int) {
		for i := 0; i < n; i++ {
			if err := srq.Post(RecvWR{Len: 4096}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fired, firedAt := 0, -1
	onLimit := func() { fired, firedAt = fired+1, srq.Len() }
	consume := func(n int) (events uint64) {
		t.Helper()
		for i := 0; i < n; i++ {
			qa.PostSend(&SendWR{Op: OpSend, Len: 10, Unsignaled: true})
		}
		before, left := eng.Fired(), srq.Len()-n
		eng.Run()
		if srq.Len() != left {
			t.Fatalf("%d WQEs left posted, want %d", srq.Len(), left)
		}
		return eng.Fired() - before
	}
	post(17)
	unarmed, one := consume(4), consume(1) // 12 left; what four consumes and one cost with nothing armed
	srq.Arm(8, onLimit)
	if got := consume(4); fired != 0 || got != unarmed { // 8 left: at the limit, not below it
		t.Fatalf("fired %d times with the limit still posted; %d events for four consumes, %d unarmed", fired, got, unarmed)
	}
	post(4)
	if fired != 0 {
		t.Fatal("Post fired the limit")
	}
	consume(4) // 8 left again
	if got := consume(1); fired != 1 || firedAt != 7 || got != one {
		t.Fatalf("fired %d times (at %d posted) on the crossing consume, %d events; want once at 7, %d events", fired, firedAt, got, one)
	}
	if consume(3); fired != 1 {
		t.Fatalf("fired %d times: the limit is one-shot", fired)
	}
	if post(2); fired != 1 { // 6 posted
		t.Fatal("Post fired a disarmed limit")
	}
	srq.Arm(8, onLimit) // armed below the limit: the next consume is due
	if fired != 1 {
		t.Fatal("Arm fired the limit")
	}
	if consume(1); fired != 2 || firedAt != 5 {
		t.Fatalf("fired %d times (at %d posted) after re-arming below the limit, want twice, at 5", fired, firedAt)
	}
	srq.Arm(8, onLimit)
	srq.Arm(0, nil)
	if consume(5); fired != 2 || b.Counters.RNRNakSent != 0 {
		t.Fatalf("fired %d times after disarming (%d RNR NAKs)", fired, b.Counters.RNRNakSent)
	}
	// Flush (a NIC restart): nothing posted and nothing armed, so the
	// consumes of what is posted next fire nothing.
	post(3)
	srq.Arm(8, onLimit)
	if srq.Flush(); srq.Len() != 0 {
		t.Fatalf("%d WQEs posted after Flush", srq.Len())
	}
	post(2)
	if consume(2); fired != 2 {
		t.Fatalf("fired %d times: Flush left the limit armed", fired)
	}
}

func TestDCQCNCutsUnderIncast(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	cfg := DefaultConfig()
	victim := New(eng, fab.Host(0), cfg)
	_ = victim
	senders := make([]*NIC, 3)
	sqs := make([]*QP, 3)
	for i := range senders {
		senders[i] = New(eng, fab.Host(fabric.NodeID(i+1)), cfg)
		sqs[i], _ = ConnectLoopback(senders[i], victim, 256)
	}
	// Sustained 3:1 incast of 1 MB writes.
	for round := 0; round < 8; round++ {
		for i, qp := range sqs {
			mr := victim.Mem.Register(1<<20, RegNonContinuous)
			qp.PostSend(&SendWR{ID: uint64(round*10 + i), Op: OpWrite, Len: 1 << 20,
				RAddr: mr.Base, RKey: mr.RKey})
		}
	}
	eng.Run()
	var cnps, cuts int64
	for i, s := range senders {
		cnps += s.Counters.CNPRecv
		if rp := sqs[i].rate; rp != nil { // created by the QP's first CNP
			cuts += rp.RateCuts
		}
	}
	if victim.Counters.CNPSent == 0 {
		t.Fatal("victim never sent CNPs under incast")
	}
	if cnps == 0 || cuts == 0 {
		t.Fatalf("DCQCN never reacted: cnps=%d cuts=%d", cnps, cuts)
	}
	if fab.Stats.ECNMarks == 0 {
		t.Fatal("no ECN marks under incast")
	}
}

// TestHWCommandQueueSerializes: commands from two callers — QP creations and
// transitions queued with SubmitCmd — complete in submission order, each
// exactly its cost after the one before; a command a callback submits queues
// behind those already waiting; CmdQueueLen counts the waiting and the
// running; and a steady stream through a callback bound once allocates
// nothing.
func TestHWCommandQueueSerializes(t *testing.T) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	n := New(eng, fab.Host(0), DefaultConfig())
	type done struct {
		who    string
		at     sim.Time
		queued int
	}
	var got []done
	log := func(who string) { got = append(got, done{who, eng.Now(), n.CmdQueueLen()}) }
	var qp *QP
	// Caller A creates a QP and moves it to INIT; caller B interleaves plain
	// commands, the second submitting a third from its callback.
	n.CreateQP(8, 8, NewCQ(8), NewCQ(8), nil, func(q *QP) { qp = q; log("A.create") })
	n.SubmitCmd(QPModifyCost, func() { log("B.1") })
	n.SubmitCmd(QPModifyCost, func() {
		if err := n.ModifyQPNow(qp, QPInit, 0, 0); err != nil {
			t.Error(err)
		}
		log("A.init")
	})
	n.SubmitCmd(100*sim.Microsecond, func() {
		log("B.2")
		n.SubmitCmd(QPModifyCost, func() { log("B.3") })
	})
	n.CreateQP(8, 8, NewCQ(8), NewCQ(8), nil, func(*QP) { log("A.create2") })
	if q := n.CmdQueueLen(); q != 5 {
		t.Fatalf("CmdQueueLen = %d with 5 commands submitted, want 5", q)
	}
	eng.RunUntil(sim.Time(QPCreateCost) + 1) // B.1 running, 3 waiting
	if q := n.CmdQueueLen(); q != 4 {
		t.Fatalf("CmdQueueLen = %d with one command running and 3 waiting, want 4", q)
	}
	eng.Run()
	want := []struct {
		who    string
		cost   sim.Duration
		queued int // waiting or running as the callback runs (its own command done)
	}{
		{"A.create", QPCreateCost, 4},
		{"B.1", QPModifyCost, 3},
		{"A.init", QPModifyCost, 2},
		{"B.2", 100 * sim.Microsecond, 1},
		{"A.create2", QPCreateCost, 1},
		{"B.3", QPModifyCost, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("%d commands completed, want %d: %+v", len(got), len(want), got)
	}
	var at sim.Time
	for i, w := range want {
		at = at.Add(w.cost)
		if got[i].who != w.who || got[i].at != at || got[i].queued != w.queued {
			t.Errorf("completion %d = %+v, want %s at %v with %d queued", i, got[i], w.who, at, w.queued)
		}
	}
	if qp == nil || qp.State != QPInit || n.CmdQueueLen() != 0 {
		t.Fatalf("QP %v, %d commands left", qp, n.CmdQueueLen())
	}

	left := 0
	var next func()
	next = func() {
		if left > 0 {
			left--
			n.SubmitCmd(QPModifyCost, next)
		}
	}
	burst := func() {
		left = 8
		n.SubmitCmd(QPModifyCost, next)
		n.SubmitCmd(QPModifyCost, next)
		eng.Run()
	}
	burst() // warm: the queue's storage and the engine's event nodes
	if a := testing.AllocsPerRun(100, burst); a != 0 {
		t.Fatalf("a bound-callback command stream allocates %.1f per burst", a)
	}
	t.Logf("0 allocs per burst of 10 commands")
}

// TestResetStopsDCQCNTimers: a CNP creates a QP's reaction point, cuts its
// rate and arms the alpha and rate timers. RESET and destroy drop that state,
// so they take the timers with it — left armed, they keep firing on state
// nothing reads, and keep Run alive for milliseconds.
func TestResetStopsDCQCNTimers(t *testing.T) {
	for _, destroy := range []bool{false, true} {
		r := newRig(t, DefaultConfig())
		if r.qa.rate != nil {
			t.Fatal("reaction point exists before any CNP")
		}
		r.b.sendCtrl(r.a.Node, hdr{Op: opCNP, DstQPN: r.qa.QPN})
		for r.qa.rate == nil && r.eng.Step() {
		}
		if rp := r.qa.rate; rp == nil || rp.RateCuts != 1 || r.qa.paceRate(r.eng.Now()) >= r.a.LineBps() {
			t.Fatalf("destroy=%v: the CNP did not cut the rate (state %+v)", destroy, rp)
		}
		if destroy {
			r.a.DestroyQP(r.qa)
		} else if err := r.a.ModifyQPNow(r.qa, QPReset, 0, 0); err != nil {
			t.Fatal(err)
		}
		at := r.eng.Now()
		r.eng.Run()
		if el := r.eng.Now().Sub(at); r.eng.Pending() != 0 || el >= dcqcnAlphaTimer {
			t.Fatalf("destroy=%v: Run went on %v after the QP's rate state was dropped, %d events pending", destroy, el, r.eng.Pending())
		}
	}
}

func TestMemoryRegistry(t *testing.T) {
	m := NewMemory()
	mr1 := m.Register(4096, RegNonContinuous)
	mr2 := m.Register(8192, RegHugePage)
	if m.Regions() != 2 || m.RegisteredBytes != 4096+8192 {
		t.Fatalf("registry accounting wrong: %d regions, %d bytes", m.Regions(), m.RegisteredBytes)
	}
	if _, err := m.Lookup(mr1.RKey, mr1.Base, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup(mr1.RKey, mr1.Base, 4097); err == nil {
		t.Fatal("overrun lookup must fail")
	}
	if _, err := m.Lookup(mr2.RKey, mr1.Base, 16); err == nil {
		t.Fatal("wrong-key lookup must fail")
	}
	if mr, ok := m.FindLocal(mr2.Base+100, 10); !ok || mr != mr2 {
		t.Fatalf("FindLocal inside mr2 = %v, %v", mr, ok)
	}
	if _, ok := m.FindLocal(mr2.Base+8190, 10); ok {
		t.Fatal("FindLocal resolved a range that overruns its MR")
	}
	m.Deregister(mr1)
	if _, err := m.Lookup(mr1.RKey, mr1.Base, 16); err == nil {
		t.Fatal("deregistered MR still accessible")
	}
	if m.RegisteredBytes != 8192 {
		t.Fatalf("bytes after dereg = %d", m.RegisteredBytes)
	}
	m.Deregister(mr1) // double dereg is a no-op
	if m.PeakRegisteredBytes != 4096+8192 {
		t.Fatalf("peak = %d", m.PeakRegisteredBytes)
	}
}

func TestRegCostOrdering(t *testing.T) {
	// Hugepage registration of large areas must beat 4K pinning;
	// continuous must be the most expensive for big areas.
	size := 16 << 20
	nc := RegCost(size, RegNonContinuous)
	co := RegCost(size, RegContinuous)
	hp := RegCost(size, RegHugePage)
	if !(hp < nc && nc < co) {
		t.Fatalf("cost ordering hp=%v nc=%v co=%v", hp, nc, co)
	}
}

func TestDestroyQPFlushes(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.b.Crash() // nothing will complete
	r.qa.PostSend(&SendWR{ID: 77, Op: OpSend, Len: 64})
	r.eng.RunFor(10 * sim.Microsecond)
	r.a.DestroyQP(r.qa)
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(10)
	if len(sc) != 1 || sc[0].Status == StatusOK {
		t.Fatalf("destroy should flush with error: %+v", sc)
	}
	if r.a.QP(r.qa.QPN) != nil {
		t.Fatal("QP still registered after destroy")
	}
}

// TestErrorThenResetRecycles is the QP cache's path for a QP given back with
// work in flight: ERROR completes every outstanding WR FLUSHED, in post order
// and once; RESET then forgets the connection, raises nothing more, and the
// same QP connects again and carries traffic.
func TestErrorThenResetRecycles(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.b.Crash() // nothing will be acked
	for id := uint64(1); id <= 3; id++ {
		if err := r.qa.PostSend(&SendWR{ID: id, Op: OpSend, Len: 64}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunFor(10 * sim.Microsecond)
	if n := r.qa.SendQueueLen(); n != 3 {
		t.Fatalf("%d WRs outstanding before ERROR, want 3", n)
	}
	for _, to := range []QPState{QPError, QPReset} {
		if err := r.a.ModifyQPNow(r.qa, to, 0, 0); err != nil {
			t.Fatalf("→ %v: %v", to, err)
		}
	}
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(10)
	if len(sc) != 3 {
		t.Fatalf("%d send CQEs after ERROR+RESET, want 3: %+v", len(sc), sc)
	}
	for i, e := range sc {
		if e.WRID != uint64(i+1) || e.Status != StatusFlushed {
			t.Fatalf("CQE %d = %+v, want WR %d FLUSHED", i, e, i+1)
		}
	}
	if r.a.QP(r.qa.QPN) != r.qa || r.qa.State != QPReset || r.qa.SendQueueLen() != 0 {
		t.Fatalf("QP after ERROR+RESET: registered=%v state=%v outstanding=%d", r.a.QP(r.qa.QPN) == r.qa, r.qa.State, r.qa.SendQueueLen())
	}

	r.b.Revive()
	if err := r.b.ModifyQPNow(r.qb, QPReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, step := range []QPState{QPInit, QPRTR, QPRTS} {
		if err := r.a.ModifyQPNow(r.qa, step, r.b.Node, r.qb.QPN); err != nil {
			t.Fatal(err)
		}
		if err := r.b.ModifyQPNow(r.qb, step, r.a.Node, r.qa.QPN); err != nil {
			t.Fatal(err)
		}
	}
	postRecvN(t, r.qb, 1, 4096)
	if err := r.qa.PostSend(&SendWR{ID: 9, Op: OpSend, Len: 64}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if sc := r.qa.SendCQ.Poll(10); len(sc) != 1 || sc[0].WRID != 9 || sc[0].Status != StatusOK {
		t.Fatalf("send on the recycled QP: %+v", sc)
	}
	if rc := r.qb.RecvCQ.Poll(10); len(rc) != 1 || rc[0].Status != StatusOK {
		t.Fatalf("receive over the recycled QP: %+v", rc)
	}
}

// TestResetKeepsSendQueueStorage: a QP taken busy through ERROR+RESET — the
// QP cache's path for one whose connection closed with work in flight — keeps
// the storage of its send queue and unacked list, every slot zeroed (a
// shelved QP pins no WR, nor the payload one names), so the first posts after
// it reconnects allocate nothing.
func TestResetKeepsSendQueueStorage(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.b.Crash() // nothing will be acked
	for id := uint64(1); id <= 3; id++ {
		if err := r.qa.PostSend(&SendWR{ID: id, Op: OpSend, Len: 64, Data: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunFor(10 * sim.Microsecond)
	sqCap, unackedCap := cap(r.qa.sq), cap(r.qa.unacked)
	if sqCap == 0 || unackedCap < 3 {
		t.Fatalf("busy QP: sq cap %d, unacked cap %d, want > 0 and ≥ 3", sqCap, unackedCap)
	}
	for _, to := range []QPState{QPError, QPReset} {
		if err := r.a.ModifyQPNow(r.qa, to, 0, 0); err != nil {
			t.Fatalf("→ %v: %v", to, err)
		}
		if cap(r.qa.sq) != sqCap || cap(r.qa.unacked) != unackedCap {
			t.Fatalf("after %v: sq cap %d, unacked cap %d, want %d and %d", to, cap(r.qa.sq), cap(r.qa.unacked), sqCap, unackedCap)
		}
		for i, wr := range append(r.qa.sq[:cap(r.qa.sq)], r.qa.unacked[:cap(r.qa.unacked)]...) {
			if wr != nil {
				t.Fatalf("after %v: slot %d still holds WR %d", to, i, wr.ID)
			}
		}
	}
	r.eng.Run()
	r.b.Revive()
	if err := r.b.ModifyQPNow(r.qb, QPReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, step := range []QPState{QPInit, QPRTR, QPRTS} {
		if err := r.a.ModifyQPNow(r.qa, step, r.b.Node, r.qb.QPN); err != nil {
			t.Fatal(err)
		}
		if err := r.b.ModifyQPNow(r.qb, step, r.a.Node, r.qa.QPN); err != nil {
			t.Fatal(err)
		}
	}
	postRecvN(t, r.qb, 3, 4096)
	wrs := []SendWR{{ID: 11, Op: OpSend, Len: 64}, {ID: 12, Op: OpSend, Len: 64}}
	post := func() {
		if err := r.qa.PostSend(&wrs[0]); err != nil {
			t.Fatal(err)
		}
		wrs = wrs[1:]
	}
	if got := testing.AllocsPerRun(1, post); got != 0 {
		t.Errorf("a post on the recycled QP allocates %.0f, want 0", got)
	}
	r.eng.Run()
	if sc := r.qa.SendCQ.Poll(10); len(sc) != 5 || sc[3].WRID != 11 || sc[4].WRID != 12 || sc[4].Status != StatusOK {
		t.Fatalf("send CQEs: %+v", sc)
	}
}

// TestConfigFieldBudget holds Config at the options some world sets; every
// other device parameter is a constant. Raising it is a regression to
// explain, like xrdma's TestChannelStructBudget.
func TestConfigFieldBudget(t *testing.T) {
	got, most := reflect.TypeOf(Config{}).NumField(), 5
	t.Logf("rnic.Config fields = %d (budget %d)", got, most)
	if got > most {
		t.Errorf("rnic.Config has %d fields, budget %d", got, most)
	}
}
