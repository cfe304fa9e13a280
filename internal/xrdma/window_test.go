package xrdma

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"xrdma/internal/sim"
)

// testWindow is a window on its own pool, outside any context.
type testWindow struct {
	window
	p *winPool
}

func newWindow(depth int) *testWindow { return &testWindow{p: &winPool{depth: uint64(depth)}} }

func (w *testWindow) canSend() bool                        { return w.window.canSend(w.p) }
func (w *testWindow) next(rec *msgRec) uint64              { return w.window.next(w.p, rec) }
func (w *testWindow) retire() *msgRec                      { return w.window.retire(w.p) }
func (w *testWindow) rewind()                              { w.window.rewind(w.p) }
func (w *testWindow) receive(seq uint64, recved bool) bool { return w.window.receive(w.p, seq, recved) }
func (w *testWindow) markRecved(seq uint64)                { w.window.markRecved(w.p, seq) }

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
	ackTo(w, 2)
	if w.inflight() != 2 || !w.canSend() {
		t.Fatalf("after ack(2): inflight=%d", w.inflight())
	}
	// Stale ack ignored.
	ackTo(w, 1)
	if w.acked != 2 {
		t.Fatal("ack regressed")
	}
	_ = acked
}

// ackTo advances the ack edge the way Channel.handleWire does, returning the
// MsgIDs of the records retired on the way.
func ackTo(w *testWindow, ack uint64) (retired []uint64) {
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
	if got := ackTo(w, 3); len(got) != 3 || got[0] != 101 || got[2] != 103 {
		t.Fatalf("retire order: %v", got)
	}
	// The freed slots are reused while seq 4 is still unacked.
	w.next(&msgRec{msgID: 105})
	if got := ackTo(w, 5); len(got) != 2 || got[0] != 104 || got[1] != 105 {
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
	ackTo(w, 2)
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
			ackTo(tx, rx.ackValue())
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
		ackTo(tx, rx.ackValue())
		return tx.inflight() == 0 && tx.slots == nil && rx.slots == nil // quiescent: both arrays back
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// holds reports whether w holds a slot array, and checks the pool's ledger:
// every array made is held by w or free, and each free one is cleared.
func (w *testWindow) holds(t *testing.T) bool {
	t.Helper()
	held := 0
	if w.slots != nil {
		held = 1
	}
	if w.p.Free()+held != w.p.Live() {
		t.Fatalf("%d arrays free, %d held, %d live", w.p.Free(), held, w.p.Live())
	}
	for _, s := range w.p.Items() {
		if slices.ContainsFunc(s, func(x winSlot) bool { return x != winSlot{} }) {
			t.Fatal("a free slot array keeps a record or a receive mark")
		}
	}
	return held == 1
}

// TestWindowHoldsSlotsWhileInUse: the slot array is taken when a message is
// sent and not yet acked, or a rendezvous message is still being pulled, and
// goes back, cleared, once both halves are quiescent; an in-order inline
// receive with nothing being pulled takes none.
func TestWindowHoldsSlotsWhileInUse(t *testing.T) {
	t.Run("inline receive", func(t *testing.T) {
		w := newWindow(4)
		for seq := uint64(1); seq <= 9; seq++ { // past the depth: no slot indexes them
			w.receive(seq, true)
		}
		if w.ackValue() != 9 || w.holds(t) || w.p.Live() != 0 {
			t.Fatalf("rta %d, %d arrays made: in-order inline receives need none", w.ackValue(), w.p.Live())
		}
	})
	t.Run("send and ack", func(t *testing.T) {
		w := newWindow(4)
		rec := &msgRec{msgID: 7}
		w.next(rec)
		first := &w.slots[0]
		w.next(nil)
		ackTo(w, 1)
		if !w.holds(t) {
			t.Fatal("the window let go of its slots with seq 2 unacked")
		}
		ackTo(w, 2)
		if w.holds(t) {
			t.Fatal("an acked window keeps its slots")
		}
		w.next(nil) // the same array again: nothing is made
		if &w.slots[0] != first || w.p.Live() != 1 {
			t.Fatal("a second burst made a new slot array")
		}
	})
	t.Run("out-of-order pulls", func(t *testing.T) {
		w := newWindow(4)
		w.receive(1, true) // in order: no slot
		w.receive(2, false)
		w.receive(3, false)
		w.receive(4, true) // behind the pulls: marked in its slot
		w.markRecved(3)
		if w.ackValue() != 1 || !w.holds(t) {
			t.Fatalf("rta %d after the later pull completed first", w.ackValue())
		}
		w.markRecved(2)
		if w.ackValue() != 4 || w.holds(t) {
			t.Fatalf("rta %d, slots held %v once every pull completed", w.ackValue(), w.slots != nil)
		}
		w.markRecved(3) // a stale replay's completion takes nothing
		if w.holds(t) {
			t.Fatal("a stale markRecved took slots")
		}
	})
	t.Run("rewind", func(t *testing.T) {
		// requeueUnacked's rewind lets go of the slots unless a pull still
		// needs its mark, and the replay takes them again.
		w := newWindow(4)
		w.next(nil)
		w.next(nil)
		w.receive(1, false)
		w.rewind()
		if !w.holds(t) || w.seq != 0 {
			t.Fatal("a rewind dropped the slots a pull in flight marks")
		}
		w.markRecved(1)
		if w.holds(t) {
			t.Fatal("quiescent after the pull, the rewound window keeps its slots")
		}
		w.next(nil)
		w.rewind()
		if w.holds(t) || w.seq != 0 || w.inflight() != 0 {
			t.Fatal("a rewound quiescent window keeps its slots")
		}
	})
	t.Run("rehydrated floors", func(t *testing.T) {
		// Rehydrate restores the edges alone; the first message past the
		// floors takes the slots and indexes them mod depth.
		w := newWindow(4)
		w.seq, w.acked, w.wta, w.rta = 1001, 1001, 2002, 2002
		if w.holds(t) || !w.canSend() {
			t.Fatal("restored floors hold slots, or refuse a send")
		}
		if seq := w.next(&msgRec{msgID: 5}); seq != 1002 || w.at(1002).msgID != 5 {
			t.Fatalf("seq %d past the floor", seq)
		}
		w.receive(2003, false)
		if w.receive(2002, true) || !w.isRecved(2002) || w.isRecved(2003) {
			t.Fatal("the receive floor is not the ack edge")
		}
		ackTo(w, 1002)
		w.markRecved(2003)
		if w.holds(t) || w.ackValue() != 2003 {
			t.Fatal("a rehydrated window keeps its slots once quiescent")
		}
	})
	t.Run("close mid-flight", func(t *testing.T) {
		// teardown frees the slots whatever they hold: an unacked send and
		// a pull in flight.
		w := newWindow(4)
		w.next(&msgRec{})
		w.receive(1, false)
		w.rewind()
		w.free(w.p)
		if w.holds(t) || w.p.Free() != 1 {
			t.Fatal("a closed window keeps its slots")
		}
	})
}

// TestQuietChannelHoldsNothing: an idle channel costs only its handle. A
// classic and a mux channel each carry a request/response and a rendezvous
// message both ways; in flight they hold window slots and a waiter map, and
// once quiet neither end holds either: each is back on its context's free list.
func TestQuietChannelHoldsNothing(t *testing.T) {
	for _, qpsPerPeer := range []int{0, 1} {
		t.Run(fmt.Sprintf("qps-per-peer=%d", qpsPerPeer), func(t *testing.T) {
			w := newWorld(t, 2, muxKnobs(qpsPerPeer))
			cli, srv := w.connect(t, 0, 1, 5030)
			if (cli.cid != 0) != (qpsPerPeer > 0) {
				t.Fatalf("cid %d with %d QPs per peer", cli.cid, qpsPerPeer)
			}
			echoServer(srv)
			answered := 0
			for _, size := range []int{64, 64 << 10} {
				if err := cli.SendMsg(make([]byte, size), 0, func(m *Msg, err error) {
					if err != nil || m.Len != size {
						t.Errorf("%d B echo: %v, Len %d", size, err, m.Len)
					}
					answered++
				}); err != nil {
					t.Fatal(err)
				}
			}
			if cli.win.slots == nil || cli.pending == nil {
				t.Fatal("two requests in flight hold no slots or no waiter map: the test is vacuous")
			}
			w.eng.Run()
			if answered != 2 || srv.Counters.LargeRecv != 1 || cli.Counters.LargeRecv != 1 {
				t.Fatalf("%d answers, %d and %d pulls: want 2 and one each way", answered, srv.Counters.LargeRecv, cli.Counters.LargeRecv)
			}
			for _, ch := range []*Channel{cli, srv} {
				if ch.win.slots != nil || ch.pending != nil {
					t.Errorf("quiet channel (node %d) holds slots=%v waiter map=%v",
						ch.ctx.Node(), ch.win.slots != nil, ch.pending != nil)
				}
			}
			w.checkAtRest(t, 1, 1)
		})
	}
}

// TestPullAcrossMockSwitchDrains: a rendezvous pull in flight when its
// channel switches to the Mock completes stale, and the sender replays the
// message inline. It is delivered once, and the window's receive edges meet
// again, so the quiet channel reads idle.
func TestPullAcrossMockSwitchDrains(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.MockEnabled = true })
	cli, srv := w.connect(t, 0, 1, 5040)
	got := 0
	srv.OnMessage(func(m *Msg) {
		if m.Len != 64<<10 {
			t.Errorf("delivered %d bytes, want 64 KiB", m.Len)
		}
		got++
	})
	if err := cli.SendMsg(make([]byte, 64<<10), 0, nil); err != nil {
		t.Fatal(err)
	}
	for srv.win.rta == srv.win.wta && w.eng.Step() {
	}
	if srv.win.rta == srv.win.wta {
		t.Fatal("the receiver never started its pull")
	}
	for _, ch := range []*Channel{srv, cli} {
		if err := ch.ForceMock(); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.RunFor(10 * sim.Millisecond)
	if got != 1 || !cli.Mocked() || !srv.Mocked() {
		t.Fatalf("%d deliveries, mocked %v/%v: want the message once, over the Mock", got, cli.Mocked(), srv.Mocked())
	}
	for _, ch := range []*Channel{cli, srv} {
		if ch.win.rta != ch.win.wta || !ch.idle() {
			t.Errorf("node %d: rta %d, wta %d, idle %v: want the edges met and idle", ch.ctx.Node(), ch.win.rta, ch.win.wta, ch.idle())
		}
	}
}

// TestReplayedAnnounceDuringPull: a LARGE announce replayed for a sequence
// whose pull is still in flight starts a second pull of the same staged
// buffer. The first to land delivers; the other finds the sequence received
// and frees its payload. The message is delivered once and the world rests.
func TestReplayedAnnounceDuringPull(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5041)
	got := 0
	srv.OnMessage(func(m *Msg) { got++ })
	if err := cli.SendMsg(make([]byte, 64<<10), 0, nil); err != nil {
		t.Fatal(err)
	}
	for srv.win.rta == srv.win.wta && w.eng.Step() {
	}
	if srv.win.rta == srv.win.wta {
		t.Fatal("the receiver never started its pull")
	}
	seq, c := srv.win.wta, srv.ctx
	rec := cli.win.at(seq)
	h := wireHdr{Kind: kindLargeReq, Seq: seq, MsgID: rec.msgID, Size: uint32(rec.size), Flags: flagOneWay,
		Addr: rec.staged.Addr, RKey: rec.staged.MR.RKey}
	allocs := c.Mem.Allocs
	srv.handleWire(&h, nil, false, nil)
	if c.Mem.Allocs != allocs+1 {
		t.Fatalf("the replayed announce took %d buffers, want one for its own pull", c.Mem.Allocs-allocs)
	}
	w.eng.Run()
	if got != 1 || srv.Counters.LargeRecv != 1 {
		t.Fatalf("%d deliveries, %d rendezvous received: want the message once", got, srv.Counters.LargeRecv)
	}
	cli.Close()
	srv.Close()
	w.eng.Run()
	w.checkAtRest(t, 0, 0)
}
