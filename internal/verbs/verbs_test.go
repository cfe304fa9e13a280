package verbs

import (
	"errors"
	"reflect"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

type world struct {
	eng  *sim.Engine
	fab  *fabric.Fabric
	net  *CMNetwork
	ctxs []*Context
	cms  []*CM
}

func newWorld(t testing.TB, hosts int) *world {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.ClusterClos(hosts))
	w := &world{eng: eng, fab: fab, net: NewCMNetwork()}
	for i := 0; i < hosts; i++ {
		nic := rnic.New(eng, fab.Host(fabric.NodeID(i)), rnic.DefaultConfig())
		ctx := Open(nic)
		w.ctxs = append(w.ctxs, ctx)
		w.cms = append(w.cms, NewCM(ctx, w.net, fab.Host(fabric.NodeID(i))))
	}
	return w
}

// listenEcho makes host i accept connections and remember them.
func listenEcho(t testing.TB, w *world, i, port int, got *[]*Conn) {
	t.Helper()
	err := w.cms[i].Listen(port, func(req *ConnReq) {
		qp := w.ctxs[i].NIC.AllocQPNow(64, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil)
		req.Accept(qp, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			cc := *c // c is valid only while done runs
			*got = append(*got, &cc)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConnectEstablishes(t *testing.T) {
	w := newWorld(t, 4)
	var accepted []*Conn
	listenEcho(t, w, 1, 7000, &accepted)
	var conn *Conn
	var start, end sim.Time
	start = w.eng.Now()
	w.cms[0].Connect(1, 7000, nil, nil, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		cc := *c // c is valid only while done runs
		conn = &cc
		end = w.eng.Now()
	})
	w.eng.Run()
	if conn == nil || len(accepted) != 1 {
		t.Fatalf("connection not established (conn=%v accepted=%d)", conn, len(accepted))
	}
	if conn.QP.State != rnic.QPRTS || accepted[0].QP.State != rnic.QPRTS {
		t.Fatal("QPs not in RTS after establishment")
	}
	// Establishment must land in the milliseconds range dominated by QP
	// creation (§III Issue 3: ~4 ms vs ~100 µs for TCP).
	el := end.Sub(start)
	if el < 2*sim.Millisecond || el > 8*sim.Millisecond {
		t.Fatalf("establishment took %v, want milliseconds", el)
	}
	t.Logf("rdma_cm establishment: %v", el)
}

func TestConnectionCarriesTraffic(t *testing.T) {
	w := newWorld(t, 4)
	var accepted []*Conn
	listenEcho(t, w, 2, 7100, &accepted)
	var conn *Conn
	w.cms[0].Connect(2, 7100, nil, nil, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil, func(c *Conn, err error) {
		cc := *c // c is valid only while done runs
		conn = &cc
	})
	w.eng.Run()
	if conn == nil || len(accepted) != 1 {
		t.Fatal("setup failed")
	}
	srv := accepted[0]
	srv.QP.PostRecv(rnic.RecvWR{ID: 1, Len: 4096})
	payload := []byte("over the established pair")
	conn.QP.PostSend(&rnic.SendWR{ID: 2, Op: rnic.OpSend, Len: len(payload), Data: payload})
	w.eng.Run()
	got := srv.QP.RecvCQ.Poll(1)
	if len(got) != 1 || string(got[0].Data) != string(payload) {
		t.Fatalf("traffic failed: %+v", got)
	}
}

func TestRecycledQPSkipsCreation(t *testing.T) {
	w := newWorld(t, 4)
	var accepted []*Conn
	listenEcho(t, w, 1, 7200, &accepted)

	// Cold connect.
	var coldDur, warmDur sim.Duration
	var conn *Conn
	start := w.eng.Now()
	w.cms[0].Connect(1, 7200, nil, nil, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		cc := *c // c is valid only while done runs
		conn = &cc
		coldDur = w.eng.Now().Sub(start)
	})
	w.eng.Run()

	// Recycle: reset the QP (the X-RDMA QP-cache path) and reconnect.
	nic := w.ctxs[0].NIC
	if err := nic.ModifyQPNow(conn.QP, rnic.QPReset, 0, 0); err != nil {
		t.Fatal(err)
	}
	start = w.eng.Now()
	w.cms[0].Connect(1, 7200, nil, conn.QP, 64, nil, nil, nil, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		warmDur = w.eng.Now().Sub(start)
	})
	w.eng.Run()

	if warmDur >= coldDur {
		t.Fatalf("recycled QP not faster: cold=%v warm=%v", coldDur, warmDur)
	}
	saved := coldDur - warmDur
	if saved < sim.Duration(rnic.QPCreateCost)*9/10 {
		t.Fatalf("recycling saved only %v, want ≈ creation cost %v", saved, sim.Duration(rnic.QPCreateCost))
	}
	t.Logf("cold=%v warm=%v saved=%v (%.0f%%)", coldDur, warmDur, saved, 100*float64(saved)/float64(coldDur))
}

// TestFailedDialQPOwnership: a dial that ends in a REJ — nobody listening,
// or the listener refusing — reports ErrRejected once and leaves QP ownership
// where it started: the CM destroys a QP it created for the dial, a recycled
// QP stays the caller's. (Before the rule, five refused dials left five QPs
// on the NIC.)
func TestFailedDialQPOwnership(t *testing.T) {
	for _, listener := range []bool{false, true} {
		w := newWorld(t, 2)
		nic := w.ctxs[0].NIC
		if listener {
			w.cms[1].Listen(7300, func(req *ConnReq) { req.Reject("busy") })
		}
		recycled := nic.AllocQPNow(16, 16, rnic.NewCQ(16), rnic.NewCQ(16), nil)
		calls := 0
		for i := 0; i < 6; i++ {
			qp := recycled
			if i < 5 {
				qp = nil // the CM creates one
			}
			w.cms[0].Connect(1, 7300, nil, qp, 16, rnic.NewCQ(16), rnic.NewCQ(16), nil, func(c *Conn, err error) {
				calls++
				if c != nil || !errors.Is(err, ErrRejected) {
					t.Errorf("listener=%v: dial = (%v, %v), want ErrRejected", listener, c, err)
				}
			})
		}
		w.eng.Run()
		if calls != 6 {
			t.Fatalf("listener=%v: done called %d times for 6 dials", listener, calls)
		}
		if n := nic.NumQPs(); n != 1 || nic.QP(recycled.QPN) != recycled {
			t.Fatalf("listener=%v: %d QPs on the dialer's NIC after 5 refused CM-created dials, want only the caller's recycled one", listener, n)
		}
		if n := w.cms[0].PendingDials(); n != 0 {
			t.Fatalf("listener=%v: %d dials still pending", listener, n)
		}
	}
}

// TestCancelDial sweeps Cancel across a dial's whole life — resolving,
// creating the QP, each queued transition, waiting for the REP — with a
// CM-created and with a recycled QP. After Cancel returns, done is never
// called, nothing is pending, a CM-created QP is gone, and a recycled QP comes
// back to the canceller with no queued command touching it afterwards: reset
// on the spot (what the QP cache does), it must still be in RESET when the
// engine drains.
func TestCancelDial(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		for at := sim.Duration(0); at < 5*sim.Millisecond; at += 50 * sim.Microsecond {
			w := newWorld(t, 2)
			var accepted []*Conn
			listenEcho(t, w, 1, 7000, &accepted)
			nic := w.ctxs[0].NIC
			var qp *rnic.QP
			if recycle {
				qp = nic.AllocQPNow(64, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil)
			}
			finished, cancelled := false, false
			d := w.cms[0].Connect(1, 7000, nil, qp, 64, rnic.NewCQ(128), rnic.NewCQ(128), nil, func(*Conn, error) {
				if cancelled {
					t.Errorf("recycle=%v cancel@%v: done called after Cancel", recycle, at)
				}
				finished = true
			})
			w.eng.After(at, func() {
				if finished {
					return // the dial won the race; Cancel would be a no-op
				}
				cancelled = true
				back := w.cms[0].Cancel(d)
				if back != qp {
					t.Errorf("recycle=%v cancel@%v: Cancel handed back %v, want %v", recycle, at, back, qp)
				}
				if back != nil {
					if err := nic.ModifyQPNow(back, rnic.QPReset, 0, 0); err != nil {
						t.Error(err)
					}
				}
				if w.cms[0].Cancel(d) != nil {
					t.Errorf("second Cancel handed a QP back again")
				}
			})
			w.eng.Run()
			if !cancelled {
				continue
			}
			if n := w.cms[0].PendingDials(); n != 0 {
				t.Errorf("recycle=%v cancel@%v: %d dials pending", recycle, at, n)
			}
			switch {
			case !recycle && nic.NumQPs() != 0:
				t.Errorf("cancel@%v: %d QPs left on the NIC, want the CM-created one destroyed", at, nic.NumQPs())
			case recycle && (nic.NumQPs() != 1 || qp.State != rnic.QPReset):
				t.Errorf("cancel@%v: recycled QP ended in %v (%d QPs), want it untouched in RESET", at, qp.State, nic.NumQPs())
			}
		}
	}
}

// TestDialAcceptAllocs pins what one warmed dial+accept costs the verbs layer:
// the dialer's CM creates its QP, the listener accepts on a QP created through
// the command queue, and both are destroyed after each connect. What is left
// is the QPs' state: per side the QP (its struct and its bound callbacks: 4;
// its receive queue's run storage is made at its first post). The Dial and
// the ConnReq, each with its step callback, come off the CM's free lists, and
// the REQ, REP and RTU messages and both Conns are made inside them; the
// dial's steps and the hardware command queue allocate nothing. The ceiling
// is what the code reaches: raising it is a regression to explain.
func TestDialAcceptAllocs(t *testing.T) {
	const ceiling = 8
	w := newWorld(t, 2)
	nicA, nicB := w.ctxs[0].NIC, w.ctxs[1].NIC
	scqA, rcqA := rnic.NewCQ(128), rnic.NewCQ(128)
	scqB, rcqB := rnic.NewCQ(128), rnic.NewCQ(128)
	var req *ConnReq
	var srvQP *rnic.QP
	onAccept := func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		srvQP = c.QP
	}
	onCreated := func(qp *rnic.QP) { req.Accept(qp, onAccept) }
	if err := w.cms[1].Listen(7700, func(r *ConnReq) {
		req = r
		nicB.CreateQP(64, 64, scqB, rcqB, nil, onCreated)
	}); err != nil {
		t.Fatal(err)
	}
	onConn := func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		nicA.DestroyQP(c.QP)
		nicB.DestroyQP(srvQP)
	}
	op := func() {
		w.cms[0].Connect(1, 7700, nil, nil, 64, scqA, rcqA, nil, onConn)
		w.eng.Run()
	}
	for i := 0; i < 16; i++ {
		op() // warm: event nodes, packets, the command queues and QP maps
	}
	if got := testing.AllocsPerRun(100, op); got > ceiling {
		t.Errorf("%.1f allocs per dial+accept, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.1f allocs per dial+accept", got)
	}
	if nicA.NumQPs() != 0 || nicB.NumQPs() != 0 || w.cms[0].PendingDials() != 0 {
		t.Fatalf("%d+%d QPs, %d dials left", nicA.NumQPs(), nicB.NumQPs(), w.cms[0].PendingDials())
	}
}

func TestDuplicateListen(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.cms[0].Listen(7400, func(*ConnReq) {}); err != nil {
		t.Fatal(err)
	}
	if err := w.cms[0].Listen(7400, func(*ConnReq) {}); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

func TestPrivateDataDelivered(t *testing.T) {
	w := newWorld(t, 2)
	var seen []byte
	w.cms[1].Listen(7500, func(req *ConnReq) {
		seen = req.PrivateData
		req.Reject("just checking")
	})
	w.cms[0].Connect(1, 7500, []byte("hello-cm"), nil, 16, rnic.NewCQ(16), rnic.NewCQ(16), nil, func(*Conn, error) {})
	w.eng.Run()
	if string(seen) != "hello-cm" {
		t.Fatalf("private data = %q", seen)
	}
}

func TestMassEstablishmentSerializes(t *testing.T) {
	// Many concurrent dials from one node serialize on the HW command
	// queue: total time ≈ N × (create+modify) per §VII-C.
	w := newWorld(t, 2)
	var accepted []*Conn
	listenEcho(t, w, 1, 7600, &accepted)
	const n = 16
	done := 0
	for i := 0; i < n; i++ {
		w.cms[0].Connect(1, 7600, nil, nil, 16, rnic.NewCQ(32), rnic.NewCQ(32), nil, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("connect %v", err)
			}
			done++
		})
	}
	w.eng.Run()
	if done != n || len(accepted) != n {
		t.Fatalf("established %d/%d", done, n)
	}
	el := sim.Duration(w.eng.Now())
	perConn := el / n
	if perConn < 1500*sim.Microsecond {
		t.Fatalf("per-connection cost %v implausibly low (not serialized?)", perConn)
	}
	t.Logf("%d connections in %v (%v each)", n, el, perConn)
}

func TestRegMRCostOrdering(t *testing.T) {
	w := newWorld(t, 1)
	pd := w.ctxs[0].AllocPD()
	var at4k, at4m sim.Time
	start := w.eng.Now()
	pd.RegMR(4096, rnic.RegNonContinuous, func(mr *rnic.MR) { at4k = w.eng.Now() })
	w.eng.Run()
	mid := w.eng.Now()
	pd.RegMR(4<<20, rnic.RegNonContinuous, func(mr *rnic.MR) { at4m = w.eng.Now() })
	w.eng.Run()
	small := at4k.Sub(start)
	big := at4m.Sub(mid)
	if big <= small {
		t.Fatalf("4MB registration (%v) should cost more than 4KB (%v)", big, small)
	}
	if pd.MRs != 2 {
		t.Fatalf("PD counts %d MRs", pd.MRs)
	}
}

// TestStepMachinesRecycle drives a CM through every way a dial and an accept
// end — connected (both QPs destroyed at once), refused by no listener,
// rejected by the listener, cancelled at any step, unanswered by a crashed
// peer NIC — and holds the free lists to what recycling promises: the
// machines are reused (a few serve hundreds of dials), one on a free list
// keeps nothing of its last dial (request id, QP, callback, peer, message),
// each done fires at most once and only for a dial nobody cancelled, and
// nothing stays pending.
func TestStepMachinesRecycle(t *testing.T) {
	w := newWorld(t, 3)
	nicA := w.ctxs[0].NIC
	scq, rcq := rnic.NewCQ(1024), rnic.NewCQ(1024)
	if err := w.cms[1].Listen(7800, func(req *ConnReq) {
		qp := w.ctxs[1].NIC.AllocQPNow(16, 16, scq, rcq, nil)
		req.Accept(qp, func(c *Conn, err error) {
			if err == nil {
				w.ctxs[1].NIC.DestroyQP(c.QP)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.cms[1].Listen(7801, func(req *ConnReq) { req.Reject("busy") }); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	const dials = 400
	calls := make([]int, dials)
	cancelled := make([]bool, dials)
	seen := map[*Dial]bool{}
	for i := 0; i < dials; i++ {
		i := i
		port := []int{7800, 7800, 7801, 7802}[rng.Intn(4)]
		at := sim.Duration(i) * 2 * sim.Millisecond // about one QP creation apart
		w.eng.After(at, func() {
			d := w.cms[0].Connect(1, port, nil, nil, 16, scq, rcq, nil, func(c *Conn, err error) {
				if calls[i]++; cancelled[i] || calls[i] > 1 {
					t.Errorf("dial %d: done after Cancel or twice", i)
				}
				if err == nil {
					nicA.DestroyQP(c.QP)
				}
			})
			seen[d] = true
			if rng.Intn(4) == 0 {
				w.eng.After(sim.Duration(rng.Intn(int(5*sim.Millisecond))), func() {
					if calls[i] == 0 {
						cancelled[i] = true
						w.cms[0].Cancel(d)
					}
				})
			}
		})
	}
	// A dial into a crashed NIC gets no answer: only Cancel ends it.
	w.ctxs[2].NIC.Crash()
	var lost *Dial
	w.eng.After(0, func() { lost = w.cms[0].Connect(2, 7800, nil, nil, 16, scq, rcq, nil, func(*Conn, error) {}) })
	w.eng.Run()
	for i := range calls {
		if calls[i] != 1 && !cancelled[i] {
			t.Errorf("dial %d: done called %d times", i, calls[i])
		}
	}
	w.cms[0].Cancel(lost)
	for _, cm := range w.cms {
		if n := cm.PendingDials(); n != 0 {
			t.Errorf("%d dials pending", n)
		}
		for _, d := range cm.dials.Items() {
			if d.id != 0 || d.qp != nil || d.done != nil || d.settled || d.queued || d.flying ||
				d.private != nil || d.peerData != nil || !reflect.DeepEqual(d.msg, cmMsg{dial: d}) || d.stepFn == nil {
				t.Errorf("a free Dial keeps its last dial's state: %+v", d)
			}
		}
		for _, req := range cm.reqs.Items() {
			if req.qp != nil || req.done != nil || req.settled || req.queued || req.flying || req.msgID != 0 ||
				req.From != 0 || req.PrivateData != nil || !reflect.DeepEqual(req.rep, cmMsg{req: req}) || req.stepFn == nil {
				t.Errorf("a free ConnReq keeps its last request's state: %+v", req)
			}
		}
	}
	if len(seen) > dials/10 || w.cms[1].reqs.Live() > dials/10 {
		t.Errorf("%d Dials and %d ConnReqs served %d dials: nothing was reused", len(seen), w.cms[1].reqs.Live(), dials)
	}
	t.Logf("%d Dials and %d ConnReqs served %d dials", len(seen), w.cms[1].reqs.Live(), dials)
}
