package xrdma

import (
	"testing"
	"testing/quick"
)

// newWindow is a window on its own slot array, outside any context.
func newWindow(depth int) window { return window{slots: make([]winSlot, depth)} }

func TestTxWindowBasics(t *testing.T) {
	w := newWindow(4)
	if !w.canSend() || w.inflight() != 0 {
		t.Fatal("fresh window wrong")
	}
	var acked []uint64
	for i := 0; i < 4; i++ {
		seq := w.next(nil)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d", seq)
		}
		acked = append(acked, seq)
	}
	if w.canSend() {
		t.Fatal("full window should refuse")
	}
	ackTo(&w, 2)
	if w.inflight() != 2 || !w.canSend() {
		t.Fatalf("after ack(2): inflight=%d", w.inflight())
	}
	// Stale ack ignored.
	ackTo(&w, 1)
	if w.acked != 2 {
		t.Fatal("ack regressed")
	}
	_ = acked
}

// ackTo advances the ack edge the way Channel.handleWire does, returning the
// MsgIDs of the records retired on the way.
func ackTo(w *window, ack uint64) (retired []uint64) {
	for w.acked < ack {
		if rec := w.retire(); rec != nil {
			retired = append(retired, rec.msgID)
		}
	}
	return retired
}

func TestTxWindowRetiresInOrder(t *testing.T) {
	w := newWindow(4)
	for i := 1; i <= 4; i++ {
		w.next(&msgRec{msgID: uint64(100 + i)})
	}
	if w.at(3).msgID != 103 {
		t.Fatalf("at(3) = %d", w.at(3).msgID)
	}
	if got := ackTo(&w, 3); len(got) != 3 || got[0] != 101 || got[2] != 103 {
		t.Fatalf("retire order: %v", got)
	}
	// The freed slots are reused while seq 4 is still unacked.
	w.next(&msgRec{msgID: 105})
	if got := ackTo(&w, 5); len(got) != 2 || got[0] != 104 || got[1] != 105 {
		t.Fatalf("retire completion: %v", got)
	}
	for i, s := range w.slots {
		if s.rec != nil {
			t.Fatalf("slot %d still holds a retired record", i)
		}
	}
}

func TestTxWindowOverflowPanics(t *testing.T) {
	w := newWindow(1)
	w.next(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic")
		}
	}()
	w.next(nil)
}

func TestTxWindowAckBeyondSeqPanics(t *testing.T) {
	w := newWindow(4)
	w.next(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ack beyond seq must panic")
		}
	}()
	ackTo(&w, 2)
}

func TestRxWindowContiguousAck(t *testing.T) {
	w := newWindow(4)
	w.receive(1, true)
	if w.ackValue() != 1 {
		t.Fatalf("rta = %d", w.ackValue())
	}
	// 2 pending (rendezvous), 3 done: rta must stall at 1.
	w.receive(2, false)
	w.receive(3, true)
	if w.ackValue() != 1 {
		t.Fatalf("rta advanced past a hole: %d", w.ackValue())
	}
	w.markRecved(2)
	if w.ackValue() != 3 {
		t.Fatalf("rta = %d, want 3", w.ackValue())
	}
	// Stale markRecved tolerated.
	w.markRecved(1)
	if w.ackValue() != 3 {
		t.Fatal("stale mark moved rta")
	}
}

func TestRxWindowOutOfOrderPanics(t *testing.T) {
	w := newWindow(4)
	w.receive(1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("gap must panic")
		}
	}()
	w.receive(3, true)
}

func TestRxWindowOverrunPanics(t *testing.T) {
	w := newWindow(2)
	w.receive(1, false)
	w.receive(2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("window overrun must panic")
		}
	}()
	w.receive(3, false)
}

// Property: for any interleaving of receives (some deferred) and
// completions, RTA equals the longest contiguous completed prefix and
// never regresses.
func TestWindowAlgebraProperty(t *testing.T) {
	prop := func(deferred []bool, order []uint8) bool {
		depth := 64
		w := newWindow(depth)
		if len(deferred) > depth {
			deferred = deferred[:depth]
		}
		pending := []uint64{}
		for i, d := range deferred {
			seq := uint64(i + 1)
			w.receive(seq, !d)
			if d {
				pending = append(pending, seq)
			}
		}
		// Complete pending in an arbitrary order.
		prevRTA := w.ackValue()
		for _, o := range order {
			if len(pending) == 0 {
				break
			}
			idx := int(o) % len(pending)
			seq := pending[idx]
			pending = append(pending[:idx], pending[idx+1:]...)
			w.markRecved(seq)
			if w.ackValue() < prevRTA {
				return false // regression
			}
			prevRTA = w.ackValue()
		}
		if len(pending) == 0 && w.ackValue() != w.wta {
			return false // everything done → rta == wta
		}
		// RTA must sit exactly before the first still-pending seq.
		minPending := uint64(1 << 62)
		for _, p := range pending {
			if p < minPending {
				minPending = p
			}
		}
		if len(pending) > 0 && w.ackValue() >= minPending {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sender and receiver windows agree — a sender driven by the
// receiver's ackValue never overflows and eventually drains.
func TestWindowPairProperty(t *testing.T) {
	prop := func(msgCount uint8, deferMask uint64) bool {
		depth := 8
		tx := newWindow(depth)
		rx := newWindow(depth)
		n := int(msgCount%64) + 1
		sent := 0
		pendingPulls := []uint64{}
		for sent < n {
			for sent < n && tx.canSend() {
				seq := tx.next(nil)
				sent++
				deferred := deferMask&(1<<(seq%64)) != 0
				rx.receive(seq, !deferred)
				if deferred {
					pendingPulls = append(pendingPulls, seq)
				}
			}
			if !tx.canSend() && len(pendingPulls) > 0 {
				// Complete the oldest pull, then ack.
				rx.markRecved(pendingPulls[0])
				pendingPulls = pendingPulls[1:]
			}
			ackTo(&tx, rx.ackValue())
			if tx.inflight() > uint64(depth) {
				return false
			}
			if !tx.canSend() && len(pendingPulls) == 0 && rx.ackValue() == rx.wta && tx.inflight() > 0 {
				return false // stuck with nothing pending
			}
		}
		for len(pendingPulls) > 0 {
			rx.markRecved(pendingPulls[0])
			pendingPulls = pendingPulls[1:]
		}
		ackTo(&tx, rx.ackValue())
		return tx.inflight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
