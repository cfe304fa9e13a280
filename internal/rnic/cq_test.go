package rnic

import (
	"fmt"
	"reflect"
	"testing"

	"xrdma/internal/sim"
)

// stampedCQ is a CQ shared by two QPs on an engine, with no NIC behind
// them: pushRecvCQE is the whole path a receive completion takes.
func stampedCQ(eng *sim.Engine) (*CQ, [2]*QP) {
	cq := NewCQ(8)
	cq.eng = eng
	n := &NIC{eng: eng}
	return cq, [2]*QP{{QPN: 1, nic: n, RecvCQ: cq}, {QPN: 2, nic: n, RecvCQ: cq}}
}

// ids renders polled completions as QPN.WRID.
func ids(cqes []CQE) string {
	s := ""
	for _, c := range cqes {
		s += fmt.Sprintf("%d.%d ", c.QPN, c.WRID)
	}
	return s
}

// TestStampedCQ holds the completion queue's contract: an entry carries the
// instant it becomes visible and orders against the engine's events exactly
// as an event at its key would.
func TestStampedCQ(t *testing.T) {
	const ns = sim.Nanosecond
	t.Run("QPs of different completion costs poll in (visible-at, push) order", func(t *testing.T) {
		eng := sim.NewEngine()
		cq, qp := stampedCQ(eng)
		eng.At(0, func() {
			qp[0].pushRecvCQE(270*ns, CQE{QPN: 1, WRID: 1}) // a context-cache miss
			qp[1].pushRecvCQE(150*ns, CQE{QPN: 2, WRID: 2}) // a hit: visible first
			qp[1].pushRecvCQE(150*ns, CQE{QPN: 2, WRID: 3})
			qp[0].pushRecvCQE(150*ns, CQE{QPN: 1, WRID: 4}) // held behind its QP's earlier one
		})
		eng.Run()
		if got := ids(cq.Poll(8)); got != "2.2 2.3 1.1 1.4 " {
			t.Errorf("polled %s, want 2.2 2.3 1.1 1.4", got)
		}
	})
	t.Run("an entry is invisible, and not counted, until its instant", func(t *testing.T) {
		eng := sim.NewEngine()
		cq, qp := stampedCQ(eng)
		eng.At(0, func() { qp[0].pushRecvCQE(150*ns, CQE{WRID: 1}) })
		eng.RunUntil(149)
		if cq.Len() != 0 || cq.Poll(8) != nil || cq.NextAt() != 150 {
			t.Fatalf("at 149 ns: Len %d, NextAt %v; want 0, 150ns", cq.Len(), cq.NextAt())
		}
		eng.RunUntil(150)
		if cq.Len() != 1 || cq.NextAt() != sim.MaxTime {
			t.Fatalf("at 150 ns: Len %d, NextAt %v; want 1, none", cq.Len(), cq.NextAt())
		}
	})
	t.Run("a poll at the instant sees the entry iff it was scheduled after the push", func(t *testing.T) {
		eng := sim.NewEngine()
		cq, qp := stampedCQ(eng)
		var before, after []CQE
		eng.At(0, func() {
			eng.At(150, func() { before = cq.PollAppend(nil, 8) })
			qp[0].pushRecvCQE(150*ns, CQE{WRID: 1})
			eng.At(150, func() { after = cq.PollAppend(nil, 8) })
		})
		eng.Run()
		if len(before) != 0 || len(after) != 1 {
			t.Errorf("poll scheduled before the push saw %d, after it %d; want 0 and 1", len(before), len(after))
		}
	})
	t.Run("OnCompletionAt runs again from PollAppend while entries are pending", func(t *testing.T) {
		eng := sim.NewEngine()
		cq, qp := stampedCQ(eng)
		var woke []sim.Time
		cq.OnCompletionAt(func(at sim.Time) { woke = append(woke, at) })
		eng.At(0, func() {
			qp[0].pushRecvCQE(300*ns, CQE{WRID: 1})
			qp[1].pushRecvCQE(150*ns, CQE{WRID: 2}) // earlier than the one held: it wakes
			qp[1].pushRecvCQE(400*ns, CQE{WRID: 3}) // behind both: silent
		})
		eng.At(200, func() { cq.PollAppend(nil, 8) }) // drains 2, leaves 1 and 3 pending
		eng.At(350, func() { cq.PollAppend(nil, 8) }) // drains 1, leaves 3
		eng.At(500, func() { cq.PollAppend(nil, 8) }) // drains 3, leaves nothing
		eng.Run()
		if want := []sim.Time{300, 150, 300, 400}; !reflect.DeepEqual(woke, want) {
			t.Errorf("woke at %v, want %v", woke, want)
		}
	})
	t.Run("a flush or a reset with completions pending", func(t *testing.T) {
		r := newRig(t, DefaultConfig())
		postRecvN(t, r.qb, 2, 64)
		must(t, r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: 64}))
		cq := r.qa.SendCQ
		for cq.cnt == 0 && r.eng.Step() { // the ack is in: the completion is pending
		}
		must(t, r.qa.PostSend(&SendWR{ID: 2, Op: OpSend, Len: 64}))
		if cq.cnt != 1 || cq.Len() != 0 {
			t.Fatalf("after the ack: %d held, %d visible; want 1 pending", cq.cnt, cq.Len())
		}
		due := cq.NextAt()
		must(t, r.a.modifyQPNow(r.qa, QPError, 0, 0))
		// The flush is visible at once, ahead of the completion still pending.
		if sc := cq.Poll(8); len(sc) != 1 || sc[0].WRID != 2 || sc[0].Status != StatusFlushed {
			t.Fatalf("after the flush polled %v, want WR 2 FLUSHED", sc)
		}
		must(t, r.a.modifyQPNow(r.qa, QPReset, 0, 0))
		r.eng.RunUntil(due)
		if sc := cq.Poll(8); len(sc) != 1 || sc[0].WRID != 1 || sc[0].Status != StatusOK || sc[0].QPN != r.qa.QPN {
			t.Fatalf("at %v polled %v, want WR 1 OK on QP %d: a reset does not drop a pending completion", due, sc, r.qa.QPN)
		}
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// cqRun is the outcome of one FuzzCQOrder program: every poll's instant and
// what it drained, as one string.
type cqRun []string

// runCQProgram decodes ops into timed actions on two QPs sharing two CQs: cq[0]
// is drained by poll actions, cq[1] by its OnCompletion callback. Each action
// is 2 bytes: the kind and QP, then a value. The reference model is the one
// event per completion design: a push schedules a drain event at the
// completion's instant that appends to a FIFO, and OnCompletion runs when a
// drain makes it non-empty.
func runCQProgram(ops []byte, reference bool) cqRun {
	eng := sim.NewEngine()
	var out cqRun
	n := &NIC{eng: eng}
	var cqs [2]*CQ
	var fifos [2][]CQE
	var qps [2]*QP
	for i := range cqs {
		cqs[i] = NewCQ(4)
		cqs[i].eng = eng
	}
	for i := range qps {
		qps[i] = &QP{QPN: uint32(i + 1), nic: n}
	}
	poll := func(c int) []CQE {
		if reference {
			got := fifos[c]
			fifos[c] = nil
			return got
		}
		return cqs[c].Poll(cqs[c].Len())
	}
	record := func(what string, c int) {
		out = append(out, fmt.Sprintf("%v %s cq%d %s", eng.Now(), what, c, ids(poll(c))))
	}
	drained := func() { record("notified", 1) }
	cqs[1].OnCompletion(drained)
	push := func(qp *QP, c int, d sim.Duration, e CQE) {
		if !reference {
			qp.RecvCQ = cqs[c]
			qp.pushRecvCQE(d, e)
			return
		}
		qp.recvCQAt = max(eng.Now().Add(d), qp.recvCQAt)
		eng.At(qp.recvCQAt, func() {
			if fifos[c] = append(fifos[c], e); c == 1 && len(fifos[c]) == 1 {
				drained()
			}
		})
	}
	flush := func(qp *QP, c int, e CQE) {
		if !reference {
			cqs[c].push(eng.Current(), e)
			return
		}
		if fifos[c] = append(fifos[c], e); c == 1 && len(fifos[c]) == 1 {
			drained()
		}
	}
	var wrid uint64
	for i := 0; i+1 < len(ops); i += 2 {
		kind, qp, c, v := ops[i]%4, qps[ops[i]>>2&1], int(ops[i]>>3&1), sim.Duration(ops[i+1])
		at := sim.Time(v % 16 * 50) // a coarse grid: instants collide
		wrid++
		e := CQE{QPN: qp.QPN, WRID: wrid}
		switch kind {
		case 0: // push a completion 150 ns plus a cache miss or not from at
			eng.At(at, func() { push(qp, c, 150+v/16%2*120, e) })
		case 1: // push one whose cost lands it on a poll instant
			eng.At(at, func() { push(qp, c, v/16*50, e) })
		case 2:
			eng.At(at, func() { record("polled", 0) })
		case 3: // flush one WR, then reset the QP: its ordering watermark restarts
			eng.At(at, func() { flush(qp, c, e); qp.recvCQAt = 0 })
		}
	}
	eng.Run()
	record("end", 0)
	record("end", 1)
	return out
}

// FuzzCQOrder runs generated push, flush, reset and poll programs against
// the stamped CQ and against a reference model of one drain event per
// completion: both must return the same entries at the same instants, and
// the OnCompletion callback must run at the same instants.
func FuzzCQOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x02, 0x06, 0x05, 0x03, 0x0a, 0x03, 0x0b, 0x07, 0x08, 0x10})
	f.Add([]byte{0x04, 0x21, 0x00, 0x31, 0x02, 0x04, 0x0d, 0x24, 0x09, 0x35, 0x03, 0x02, 0x02, 0x09})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		got, want := runCQProgram(ops, false), runCQProgram(ops, true)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("step %d: stamped CQ %q, reference %q", i, got[i], want[i])
				}
			}
			t.Fatalf("stamped CQ recorded %d steps, reference %d", len(got), len(want))
		}
	})
}
