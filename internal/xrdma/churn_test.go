package xrdma

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/verbs"
)

// cmTap counts the CM messages that land on a node by kind (REQ, REP, RTU,
// REJ), read before the CM handles them: a message whose step machine was
// recycled too early lands as something else.
type cmTap struct {
	cm    *verbs.CM
	kinds *[4]int
}

func (tp cmTap) HandlePacket(p *fabric.Packet) {
	tp.kinds[reflect.ValueOf(p.Payload).Elem().FieldByName("kind").Uint()]++
	tp.cm.HandlePacket(p)
}

// The steps a verbs dial waits for (verbs.dialStage), as the churn test reads
// them off a dial in flight; dialDone: none, it connected.
const (
	dialInit = 2 + iota
	dialRTR
	dialRTS
	dialDone
)

// The ways a churn cycle ends.
const (
	churnEcho     = iota // a 64 B echo, then both ends close at the same instant
	churnChain           // the same, and the client dials again the moment it connects
	churnSrvClose        // the server closes before the REP lands, between the dialer's RTR and RTS, or after
	churnRefused         // a node with no listener refuses the dial
)

type churnCycle struct {
	id, mode     int
	cli, srv     int
	delay        sim.Duration // churnSrvClose: from the accept to the server's Close
	calls        int
	err          error
	cliCh, srvCh *Channel
}

// TestChurnRecyclesSafely runs seeded connect/close cycles, six at a time,
// through everything a connect and a close recycle — the CM's Dial and
// ConnReq, the estab with its pool, the window's slot array, the request
// bookkeeping — in every way a cycle can end early: the server closing before
// the REP lands or while the dialer is between RTR and RTS, both ends closing
// at once, a refused dial, a client that dials again from inside its Connect
// callback (while the last RTU is still in flight), and a Drain mid-dial.
// Every Connect callback fires once; every CM exchange lands exactly its
// messages (one REQ per dial, one REP per accept, one RTU per connect, one
// REJ per refusal); nothing on a free list keeps its last incarnation's
// epoch, request, pool, slots or waiter, and nothing live holds another's;
// the world ends at rest.
func TestChurnRecyclesSafely(t *testing.T) {
	const nodes, refuser, cycles, concurrent = 5, 4, 600, 6
	w := newWorld(t, nodes, nil)
	rng := sim.NewRNG(20261018)
	var landed [4]int
	for i, c := range w.ctxs {
		w.fab.Host(fabric.NodeID(i)).AttachProto(fabric.ProtoCM, cmTap{c.cm, &landed})
	}

	var all []*churnCycle
	var modes [4]int
	drainRefused := 0
	busy := map[[2]int]*churnCycle{} // one dial per ordered pair, so a server knows its cycle
	accepted, connected, failed, draining := 0, 0, 0, false
	estabs, slots := map[*estab]bool{}, map[*winSlot]bool{}
	var issue func()
	finish := func(d *churnCycle) {
		delete(busy, [2]int{d.cli, d.srv})
		if len(all) < cycles && !draining {
			issue()
		}
	}
	noteLive := func(ch *Channel) {
		// Called back from inside the estab's done, which is still busy.
		if e, ok := ch.lk.pool.owner.(*estab); !ok || e.l != ch.lk || !e.kept || &e.pool != ch.lk.pool {
			t.Errorf("node %d: channel's pool is not its link's kept estab", ch.ctx.Node())
		} else {
			estabs[e] = true
		}
		for _, c := range w.ctxs {
			checkRecycled(t, c)
		}
	}
	// closeSrv closes the server end of a churnSrvClose cycle and notes which
	// step the dial was waiting for then (dialInit: the REP; dialRTR, dialRTS;
	// dialDone: it connected).
	var dialAt [6]int
	closeSrv := func(d *churnCycle) {
		stage := uint64(dialDone)
		for _, l := range w.ctxs[d.cli].dialing {
			if l.peer == fabric.NodeID(d.srv) && l.dialing != nil {
				stage = reflect.ValueOf(l.dialing.dial).Elem().FieldByName("stage").Uint()
			}
		}
		dialAt[stage]++
		d.srvCh.Close()
	}
	connected1 := func(d *churnCycle) func(*Channel, error) {
		return func(ch *Channel, err error) {
			if d.calls++; d.calls > 1 {
				t.Errorf("cycle %d: Connect called back %d times", d.id, d.calls)
				return
			}
			d.err, d.cliCh = err, ch
			if err != nil {
				failed++
				if draining && errors.Is(err, ErrDraining) {
					drainRefused++
				} else if d.mode != churnRefused {
					t.Errorf("cycle %d (mode %d): %v", d.id, d.mode, err)
				}
				finish(d)
				return
			}
			connected++
			noteLive(ch)
			switch d.mode {
			case churnRefused:
				t.Errorf("cycle %d: a dial to a node with no listener connected", d.id)
			case churnSrvClose:
				ch.Close() // nothing sent: the server's QP may serve another pair by now
				finish(d)
				return
			case churnChain:
				issue()
			}
			payload := make([]byte, 64)
			binary.LittleEndian.PutUint64(payload, uint64(d.id))
			if err := ch.SendMsg(payload, 0, func(m *Msg, err error) {
				if err != nil || len(m.Data) != 64 || binary.LittleEndian.Uint64(m.Data) != uint64(d.id) {
					t.Errorf("cycle %d: echo %v", d.id, err)
				}
				ch.Close()
				d.srvCh.Close()
				finish(d)
			}); err != nil {
				t.Fatal(err)
			}
			if ch.win.slots != nil { // held while the request is unacked
				slots[&ch.win.slots[0]] = true
			}
		}
	}
	for j := 0; j < refuser; j++ {
		j := j
		w.ctxs[j].OnChannel(func(ch *Channel) {
			accepted++
			d := busy[[2]int{int(ch.Peer), j}]
			if d == nil || d.srvCh != nil {
				t.Fatalf("node %d accepted a channel from %d that no dial asked for", j, ch.Peer)
			}
			d.srvCh = ch
			noteLive(ch)
			switch {
			case d.mode != churnSrvClose:
				echoServer(ch)
			case d.delay == 0:
				closeSrv(d) // the REP is still in flight
			default:
				w.eng.After(d.delay, func() { closeSrv(d) })
			}
		})
		if err := w.ctxs[j].Listen(5000); err != nil {
			t.Fatal(err)
		}
	}
	dial := func(mode, cli, srv int) {
		d := &churnCycle{id: len(all), mode: mode, cli: cli, srv: srv}
		if mode == churnSrvClose && rng.Intn(4) > 0 {
			// Past the REP's flight, the dialer's RTR and its RTS each take a
			// queued QPModifyCost: the delay lands before, between or after them.
			d.delay = sim.Duration(rng.Intn(int(3*rnic.QPModifyCost + 5*sim.Microsecond)))
		}
		all = append(all, d)
		modes[mode]++
		busy[[2]int{cli, srv}] = d
		w.ctxs[cli].Connect(fabric.NodeID(srv), 5000, connected1(d))
	}
	issue = func() {
		mode := []int{churnEcho, churnEcho, churnChain, churnSrvClose, churnSrvClose, churnRefused}[rng.Intn(6)]
		for len(busy) < 2*concurrent { // a chain adds a cycle before its own ends
			cli, srv := rng.Intn(nodes), rng.Intn(refuser)
			if mode == churnRefused {
				srv = refuser
			}
			if cli != srv && busy[[2]int{cli, srv}] == nil {
				dial(mode, cli, srv)
				return
			}
		}
	}
	for k := 0; k < concurrent; k++ {
		issue()
	}
	w.eng.Run()
	if len(busy) != 0 || len(all) < cycles {
		t.Fatalf("%d cycles issued, %d still open", len(all), len(busy))
	}

	// Drain node 1 while dials to it and from it are in flight, issued 250 µs
	// apart: a REQ that lands after the drain is refused; a dial already
	// accepted, or from the draining node, completes.
	draining, before := true, connected
	for k, pair := range [][2]int{{0, 1}, {2, 1}, {1, 0}, {3, 1}, {1, 2}, {4, 1}} {
		w.eng.After(sim.Duration(k)*250*sim.Microsecond, func() { dial(churnEcho, pair[0], pair[1]) })
	}
	w.eng.After(sim.Millisecond+sim.Duration(rng.Intn(int(200*sim.Microsecond))), func() {
		if err := w.ctxs[1].Drain(func([]byte) {}); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	if drainRefused == 0 || connected == before {
		t.Errorf("the drain refused %d dials and let %d connect: the phase is vacuous", drainRefused, connected-before)
	}

	for _, d := range all {
		if d.calls != 1 {
			t.Errorf("cycle %d (mode %d): Connect called back %d times", d.id, d.mode, d.calls)
		}
		for _, ch := range []*Channel{d.cliCh, d.srvCh} {
			if ch != nil && !ch.Closed() {
				t.Errorf("cycle %d (mode %d): a channel is still open", d.id, d.mode)
			}
		}
	}
	if accepted != connected || connected+failed != len(all) {
		t.Errorf("%d dials: %d connected, %d failed, %d accepted", len(all), connected, failed, accepted)
	}
	if want := [4]int{len(all), accepted, connected, failed}; landed != want {
		t.Errorf("CM messages landed (REQ, REP, RTU, REJ) %v, want %v", landed, want)
	}
	for _, c := range w.ctxs {
		checkRecycled(t, c)
	}
	w.checkAtRest(t, 0, 0, 0, 0, 0)
	// The cycles ran on a handful of recycled objects, not one each.
	if len(estabs) > accepted/8 || len(slots) > accepted/8 {
		t.Errorf("%d estabs and %d slot arrays served %d accepts: nothing was reused", len(estabs), len(slots), accepted)
	}
	t.Logf("%d dials (%d connected, %d failed), %d estabs and %d slot arrays in use over them", len(all), connected, failed, len(estabs), len(slots))
	t.Logf("server closes with the dial awaiting the REP %d, its RTR %d, its RTS %d, done %d", dialAt[dialInit], dialAt[dialRTR], dialAt[dialRTS], dialAt[dialDone])
	t.Logf("modes %v; the drain refused %d dials and let %d connect", modes, drainRefused, connected-before)
}

// checkRecycled: what sits on a context's free lists carries nothing of its
// last incarnation, and what is live holds only its own.
func checkRecycled(t testing.TB, c *Context) {
	t.Helper()
	for _, e := range c.estabs.Items() {
		if e.l != nil || e.epoch != 0 || e.req != nil || e.dial != nil || e.qp != nil || e.rp != nil || e.retry != nil ||
			e.pd != nil || e.pool.blocks != nil || e.pool.owner != nil || e.busy || e.kept || e.doneFn == nil {
			t.Errorf("node %d: a free estab keeps its last dial's state", c.Node())
		}
	}
	for _, s := range c.wins.Items() {
		for _, slot := range s {
			if slot != (winSlot{}) {
				t.Errorf("node %d: a free slot array keeps a record or a receive mark", c.Node())
			}
		}
	}
	for _, rec := range c.recs.Items() {
		if rec.ch != nil || rec.ring != [2]*msgRec{} || rec.next != nil || rec.holds != 0 || rec.cb != nil {
			t.Errorf("node %d: a free record keeps its last message's channel or waiter", c.Node())
		}
	}
	for _, l := range c.allLinks() {
		if e := l.dialing; e != nil && (!e.busy || e.l != l || e.epoch != l.epoch || e.dial == nil || e.req != nil) {
			t.Errorf("node %d: link (peer %d) dials on an estab of another link or epoch", c.Node(), l.peer)
		}
		if l.pool == nil {
			continue
		}
		if e, ok := l.pool.owner.(*estab); !ok || e.l != l || !e.kept || &e.pool != l.pool {
			t.Errorf("node %d: link (peer %d) holds a pool its estab does not keep", c.Node(), l.peer)
		}
	}
	for _, m := range c.waitMaps.Items() {
		if len(m) != 0 {
			t.Errorf("node %d: a free waiter map keeps %d entries", c.Node(), len(m))
		}
	}
	for _, ch := range c.Channels() {
		var last uint64
		waiters := ch.waiters()
		for _, rec := range waiters {
			if rec.ch != ch || rec.holds&holdWaiter == 0 || rec.msgID <= last || ch.pending[rec.msgID] != rec {
				t.Errorf("node %d: a channel's waiters are not its own requests in issue order", c.Node())
			}
			last = rec.msgID
		}
		if len(waiters) != len(ch.pending) {
			t.Errorf("node %d: a channel has %d waiters in issue order, %d by MsgID", c.Node(), len(waiters), len(ch.pending))
		}
	}
}

// TestCloseInsidePumpedAck: a callback that the ack path's pump runs may close
// its channel — here a request its tenant's memory budget refuses, staged when
// the response's piggybacked ack opens the one-slot window — and the response
// frame that carried the ack then meets a closed channel whose slot array has
// gone back to the free list: it is dropped, not indexed, and the request it
// answered fails with the close.
func TestCloseInsidePumpedAck(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) {
		cfg.WindowDepth = 1
		cfg.Tenants = []TenantConfig{{Name: "a", MemBudget: 64 << 10}}
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	echoServer(srv)
	if err := cli.BindTenant("a"); err != nil {
		t.Fatal(err)
	}
	var small, big error
	if err := cli.SendMsg([]byte("small"), 0, func(_ *Msg, err error) { small = err }); err != nil {
		t.Fatal(err)
	}
	if err := cli.SendMsg(nil, 256<<10, func(_ *Msg, err error) {
		big = err
		cli.Close()
	}); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if !errors.Is(big, ErrTenantBudget) || !errors.Is(small, ErrChannelClosed) || cli.win.slots != nil {
		t.Fatalf("big request %v, small one %v, slots %v: want the budget refusal, the close, none", big, small, cli.win.slots)
	}
	srv.Close()
	w.eng.Run()
	w.checkAtRest(t, 0, 0)
}

// TestReplyRefusesUnstageable: a rendezvous response larger than its tenant's
// whole MemBudget could never be staged. Reply refuses it with the budget's
// error, counted as one reject, and queues nothing; the request stays
// unanswered, so the responder can still answer it with something smaller.
func TestReplyRefusesUnstageable(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) {
		cfg.Tenants = []TenantConfig{{Name: "a", MemBudget: 64 << 10}}
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	if err := srv.BindTenant("a"); err != nil {
		t.Fatal(err)
	}
	var big, small error
	queued := -1
	srv.OnMessage(func(m *Msg) {
		big = m.Reply(nil, 256<<10)
		queued = srv.sendQ.Len()
		small = m.Reply([]byte("small"), 0)
	})
	var got []byte
	if err := cli.SendMsg([]byte("req"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
			return
		}
		got = m.Retain()
	}); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	ten := srv.tenant
	if !errors.Is(big, ErrTenantBudget) || ten.MemRejects != 1 || queued != 0 {
		t.Fatalf("256 KiB Reply: err %v, MemRejects %d, %d queued; want ErrTenantBudget, 1, 0", big, ten.MemRejects, queued)
	}
	if small != nil || string(got) != "small" {
		t.Fatalf("the smaller Reply: err %v, requester got %q", small, got)
	}
	cli.Close()
	srv.Close()
	w.eng.Run()
	w.checkAtRest(t, 0, 0)
}
