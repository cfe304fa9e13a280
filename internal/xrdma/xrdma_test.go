package xrdma

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
	"xrdma/internal/xrmon"
)

// testWorld wires N nodes with contexts over a small clos fabric.
type testWorld struct {
	eng  *sim.Engine
	fab  *fabric.Fabric
	ctxs []*Context
	nics []*rnic.NIC
}

func newWorld(t testing.TB, n int, mutate func(i int, cfg *Config)) *testWorld {
	return buildWorld(t, n, false, mutate)
}

// newRecoverWorld is newWorld with the health state machine armed: a
// recovery listener on every node, compressed failure-detection clocks,
// and a short RC retry horizon so degrade→recover cycles fit millisecond
// tests.
func newRecoverWorld(t testing.TB, n int, mutate func(i int, cfg *Config)) *testWorld {
	return buildWorld(t, n, true, mutate)
}

// buildWorld wires the nodes; at the end of the test every context must hold
// the ledger's structural half (checkStructure).
func buildWorld(t testing.TB, n int, recovery bool, mutate func(i int, cfg *Config)) *testWorld {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	top := fabric.SmallClos()
	if n > top.Hosts() {
		top = fabric.ClusterClos(n)
	}
	fabric.BuildClos(fab, top)
	net := verbs.NewCMNetwork()
	w := &testWorld{eng: eng, fab: fab}
	nicCfg, recoverPort := rnic.DefaultConfig(), 0
	if recovery {
		nicCfg.RetransTimeout, nicCfg.RetryLimit, recoverPort = 2*sim.Millisecond, 3, 9100
	}
	for i := 0; i < n; i++ {
		host := fab.Host(fabric.NodeID(i))
		nic := rnic.New(eng, host, nicCfg)
		w.nics = append(w.nics, nic)
		vc := verbs.Open(nic)
		cm := verbs.NewCM(vc, net, host)
		cfg := DefaultConfig()
		if recovery {
			cfg.MockEnabled = true
			cfg.KeepaliveInterval, cfg.KeepaliveTimeout = 2*sim.Millisecond, 8*sim.Millisecond
			cfg.RecoverDialTimeout = 5 * sim.Millisecond
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tcp := tcpnet.New(eng, host)
		ctx := trackEnds(NewContext(Options{
			Verbs: vc, CM: cm, Host: host, Config: cfg,
			TCP: tcp, MockPort: 9000, RecoverPort: recoverPort, Seed: uint64(i + 1),
		}))
		w.ctxs = append(w.ctxs, ctx)
	}
	t.Cleanup(func() {
		for _, c := range w.ctxs {
			checkStructure(t, c)
			delete(ends, c)
		}
	})
	return w
}

// ends is every exclusive channel a tracked context built (Context.onEnd), the
// closed ones included, so checkStructure reaches what no list of the
// context's holds any more.
var ends = map[*Context][]*Channel{}

func trackEnds(c *Context) *Context {
	c.onEnd = func(l *link) { ends[c] = append(ends[c], l.solo[0]) }
	return c
}

// connect establishes a channel from ctx i to ctx j (which must Listen
// first) and returns both ends.
func (w *testWorld) connect(t testing.TB, i, j, port int) (*Channel, *Channel) {
	t.Helper()
	var server *Channel
	w.ctxs[j].OnChannel(func(ch *Channel) { server = ch })
	if err := w.ctxs[j].Listen(port); err != nil {
		t.Fatal(err)
	}
	var client *Channel
	w.ctxs[i].Connect(fabric.NodeID(j), port, func(ch *Channel, err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		client = ch
	})
	w.eng.Run()
	if client == nil || server == nil {
		t.Fatal("channel establishment failed")
	}
	return client, server
}

// echoServer makes the server reply with the request payload.
func echoServer(ch *Channel) {
	ch.OnMessage(func(m *Msg) {
		m.Reply(m.Retain(), m.Len)
	})
}

// recordIncidents turns the world's timeline on: from here every flight
// record lands there too, as an instant named after its category on its
// recording layer's track ("xrdma.N", "rnic.N"), carrying its A.
func (w *testWorld) recordIncidents() { telemetry.For(w.eng).Trace.Enable(1 << 16) }

// incidents returns the A values of the flight records of cat on track since
// recordIncidents, oldest first.
func (w *testWorld) incidents(t testing.TB, track string, cat telemetry.Category) []int64 {
	t.Helper()
	tl := telemetry.For(w.eng).Trace
	if n := tl.Dropped(); n > 0 {
		t.Fatalf("the timeline overwrote %d events: enlarge it", n)
	}
	var as []int64
	for _, e := range tl.Events() {
		if e.Kind == telemetry.KindInstant && e.Track == track && e.Name == cat.String() {
			as = append(as, e.Arg)
		}
	}
	return as
}

func TestSmallRequestResponse(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	echoServer(srv)
	payload := []byte("ping over xrdma")
	var resp *Msg
	err := cli.SendMsg(payload, 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("response err: %v", err)
		}
		resp = m
	})
	if err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if resp == nil || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("echo failed: %+v", resp)
	}
	if cli.Counters.ReqsSent != 1 || cli.Counters.RespsRecv != 1 {
		t.Fatalf("counters: %+v", cli.Counters)
	}
}

func TestLargeRequestRendezvous(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5001)
	payload := make([]byte, 300<<10) // 300 KB → fragmented READ pull
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var got []byte
	srv.OnMessage(func(m *Msg) {
		got = m.Retain()
		m.Reply([]byte("ok"), 0)
	})
	var done bool
	cli.SendMsg(payload, 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("resp: %v", err)
		}
		done = true
	})
	w.eng.Run()
	if !done || !bytes.Equal(got, payload) {
		t.Fatal("large request corrupted or lost")
	}
	if srv.Counters.LargeRecv != 1 || cli.Counters.LargeSent != 1 {
		t.Fatalf("rendezvous counters: %+v %+v", srv.Counters, cli.Counters)
	}
	// Fragmentation: 300KB at 64KB fragments → ≥5 READ WRs.
	if w.ctxs[1].flow.Fragments < 5 {
		t.Fatalf("expected fragmented pull, got %d fragments", w.ctxs[1].flow.Fragments)
	}
	// Staged buffer must be released after the ack round: only the receive pools stay out.
	w.checkAtRest(t, 1, 1)
	if cli.Counters.WindowStalls != 0 {
		t.Fatalf("single message should not stall")
	}
}

func TestLargeResponseReadReplaceWrite(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5002)
	blob := make([]byte, 150<<10)
	for i := range blob {
		blob[i] = byte(i ^ 77)
	}
	srv.OnMessage(func(m *Msg) { m.Reply(blob, 0) })
	var resp []byte
	cli.SendMsg([]byte("get"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("resp: %v", err)
		}
		resp = m.Retain()
	})
	w.eng.Run()
	if !bytes.Equal(resp, blob) {
		t.Fatal("large response corrupted")
	}
	if srv.Counters.LargeSent != 1 || cli.Counters.LargeRecv != 1 {
		t.Fatalf("large response counters wrong: %+v %+v", srv.Counters, cli.Counters)
	}
}

// TestRetainOwnsSmallPayload: the first Retain of an inline payload of at most
// 64 B keeps it in the Msg itself, where it outlives the next message landing in
// the receive buffer it came in; a second Retain, a 65 B payload and a
// rendezvous payload — 64 B too, with SmallMsgSize 0 — are cloned, and a
// rendezvous message's buffer goes back to the memory cache, its Data nil, once
// the handler returns. nil stays nil.
func TestRetainOwnsSmallPayload(t *testing.T) {
	if (&Msg{}).Retain() != nil {
		t.Error("Retain of a nil payload is not nil")
	}
	var w *testWorld
	var cli *Channel
	var m *Msg
	var raw, kept, again []byte
	var inHandler int64
	open := func(mutate func(int, *Config)) *MemCache {
		w = newWorld(t, 2, mutate)
		var srv *Channel
		cli, srv = w.connect(t, 0, 1, 5000)
		mem := w.ctxs[1].Mem
		srv.OnMessage(func(got *Msg) {
			m, raw, inHandler = got, got.Data, mem.InUseBytes
			kept = got.Retain()
			again = got.Retain()
		})
		return mem
	}
	send := func(b byte, n int) {
		m = nil
		cli.SendMsg(bytes.Repeat([]byte{b}, n), 0, nil)
		w.eng.Run()
		if m == nil {
			t.Fatalf("%d B message not delivered", n)
		}
	}

	open(nil)
	send(1, 64)
	first, firstRaw, firstKept, want := m, raw, kept, bytes.Repeat([]byte{1}, 64)
	if &kept[0] != &first.own[0] || &first.Data[0] != &first.own[0] || !bytes.Equal(kept, want) {
		t.Fatal("a 64 B payload is not kept in its Msg")
	}
	if &again[0] == &kept[0] || !bytes.Equal(again, want) {
		t.Fatal("a second Retain does not return an independent copy")
	}
	for i := 0; firstRaw[0] == 1; i++ { // receive buffers are reposted in turn
		if i == 4096 {
			t.Fatal("the first message's receive buffer never took another")
		}
		send(byte(2+i%250), 64)
	}
	if !bytes.Equal(firstKept, want) || !bytes.Equal(first.Data, want) {
		t.Fatal("the kept payload changed when its receive buffer took the next message")
	}

	send(2, 65)
	if m.kept || &kept[0] == &m.own[0] || &m.Data[0] != &raw[0] || !bytes.Equal(kept, bytes.Repeat([]byte{2}, 65)) {
		t.Fatal("a 65 B payload is not cloned")
	}

	mem := open(func(_ int, cfg *Config) { cfg.SmallMsgSize = 0 })
	base := mem.InUseBytes
	send(3, 64)
	if m.Ch.Counters.LargeRecv != 1 || inHandler <= base {
		t.Fatalf("setup: %d rendezvous receives, %d bytes in use in the handler from %d", m.Ch.Counters.LargeRecv, inHandler, base)
	}
	if &kept[0] == &m.own[0] || m.Data != nil || mem.InUseBytes != base || !bytes.Equal(kept, bytes.Repeat([]byte{3}, 64)) {
		t.Fatalf("rendezvous: kept in the Msg=%v, Data nil=%v, %d bytes in use after the handler, want %d",
			&kept[0] == &m.own[0], m.Data == nil, mem.InUseBytes, base)
	}
}

func TestManyRequestsInOrder(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5003)
	var gotOrder []int
	srv.OnMessage(func(m *Msg) {
		gotOrder = append(gotOrder, int(m.Data[0])<<8|int(m.Data[1]))
		m.Reply(m.Retain(), 0)
	})
	const n = 500 // well beyond the window depth of 32
	resps := 0
	for i := 0; i < n; i++ {
		cli.SendMsg([]byte{byte(i >> 8), byte(i)}, 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("resp %v", err)
			}
			resps++
		})
	}
	w.eng.Run()
	if resps != n || len(gotOrder) != n {
		t.Fatalf("completed %d/%d (server saw %d)", resps, n, len(gotOrder))
	}
	for i, v := range gotOrder {
		if v != i {
			t.Fatalf("server delivery out of order at %d: %d", i, v)
		}
	}
	if cli.Counters.WindowStalls == 0 {
		t.Fatal("500 requests over a 32-deep window must stall at least once")
	}
	if w.nics[1].Counters.RNRNakSent != 0 {
		t.Fatalf("X-RDMA must be RNR-free, receiver sent %d RNR NAKs", w.nics[1].Counters.RNRNakSent)
	}
}

// TestResponsesOutOfOrder: a server holds 1000 requests — far past the window,
// as acked requests keep waiting for their responses — then answers them in a
// seeded shuffle, every fifth with a rendezvous-sized response whose pull lets
// later inline ones overtake it. Each waiter gets its own response, found by
// MsgID and taken out of the issue-order ring wherever it sits, and none is
// left waiting.
func TestResponsesOutOfOrder(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5003)
	const n = 1000
	var held []*Msg
	var ids [][]byte
	srv.OnMessage(func(m *Msg) {
		if held, ids = append(held, m), append(ids, m.Retain()); len(held) < n {
			return
		}
		rng := sim.NewRNG(50)
		for i := len(held) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			held[i], held[j], ids[i], ids[j] = held[j], held[i], ids[j], ids[i]
		}
		for k, m := range held {
			resp := make([]byte, 2, 8<<10)
			if copy(resp, ids[k]); ids[k][1]%5 == 0 {
				resp = resp[:cap(resp)]
			}
			m.Reply(resp, 0)
		}
	})
	var order []int
	for i := 0; i < n; i++ {
		cli.SendMsg([]byte{byte(i >> 8), byte(i)}, 0, func(m *Msg, err error) {
			if err != nil || len(m.Data) < 2 || int(m.Data[0])<<8|int(m.Data[1]) != i {
				t.Fatalf("request %d: response %v, err %v", i, m, err)
			}
			order = append(order, i)
		})
	}
	w.eng.Run()
	if len(order) != n || slices.IsSorted(order) {
		t.Fatalf("%d of %d responses, in issue order: %v", len(order), n, slices.IsSorted(order))
	}
	if len(cli.pending) != 0 || cli.issued.Newest() != nil {
		t.Fatalf("%d waiters left by MsgID, %d in issue order", len(cli.pending), len(cli.waiters()))
	}
	w.checkAtRest(t, 1, 1)
}

func TestMixedSmallLargeOrdering(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5004)
	var sizes []int
	srv.OnMessage(func(m *Msg) {
		sizes = append(sizes, m.Len)
	})
	want := []int{100, 200 << 10, 50, 8 << 10, 5, 64 << 10, 9000}
	for _, s := range want {
		cli.SendMsg(nil, s, nil) // one-way, size-only
	}
	w.eng.Run()
	if len(sizes) != len(want) {
		t.Fatalf("delivered %d/%d", len(sizes), len(want))
	}
	// Delivery semantics: inline messages deliver in order among
	// themselves; rendezvous messages deliver when their pull completes.
	// Everything must arrive with sizes intact.
	counts := map[int]int{}
	for _, s := range want {
		counts[s]++
	}
	var smallGot []int
	for _, s := range sizes {
		counts[s]--
		if s <= 4096 {
			smallGot = append(smallGot, s)
		}
	}
	for s, n := range counts {
		if n != 0 {
			t.Fatalf("size %d count mismatch (%d): %v", s, n, sizes)
		}
	}
	wantSmall := []int{100, 50, 5}
	for i := range wantSmall {
		if i >= len(smallGot) || smallGot[i] != wantSmall[i] {
			t.Fatalf("inline subsequence reordered: %v", smallGot)
		}
	}
}

func TestStandaloneAcksFlowForOneWayTraffic(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5005)
	srv.OnMessage(func(m *Msg) {}) // never replies
	const n = 200
	for i := 0; i < n; i++ {
		cli.SendMsg(nil, 64, nil)
	}
	w.eng.Run()
	if srv.Counters.MsgsRecv != n {
		t.Fatalf("server received %d/%d", srv.Counters.MsgsRecv, n)
	}
	if srv.Counters.AcksSent == 0 {
		t.Fatal("no standalone acks with one-way traffic")
	}
	if cli.Inflight() != 0 {
		t.Fatalf("window never drained: %d inflight", cli.Inflight())
	}
}

func TestKeepaliveReclaimsDeadPeer(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.KeepaliveInterval = 2 * sim.Millisecond
		cfg.KeepaliveTimeout = 10 * sim.Millisecond
		cfg.MockEnabled = false
	})
	cli, _ := w.connect(t, 0, 1, 5006)
	var closeErr error
	cli.OnClose(func(err error) { closeErr = err })
	qpCacheBefore := w.ctxs[0].QPs.Len()
	w.nics[1].Crash()
	w.eng.RunFor(500 * sim.Millisecond)
	if closeErr == nil {
		t.Fatal("keepalive never detected the dead peer")
	}
	if !cli.Closed() {
		t.Fatal("channel not reclaimed")
	}
	if w.ctxs[0].QPs.Len() != qpCacheBefore+1 {
		t.Fatalf("QP not recycled after reclaim: cache %d → %d", qpCacheBefore, w.ctxs[0].QPs.Len())
	}
	if w.ctxs[0].Stats.KeepaliveProbes == 0 {
		t.Fatal("no probes were sent")
	}
	if w.ctxs[0].Mem.InUseBytes != 0 {
		t.Fatalf("leaked %d bytes of RDMA memory after reclaim", w.ctxs[0].Mem.InUseBytes)
	}
}

func TestKeepaliveQuietOnHealthyIdle(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.KeepaliveInterval = 2 * sim.Millisecond
		cfg.KeepaliveTimeout = 10 * sim.Millisecond
	})
	cli, srv := w.connect(t, 0, 1, 5007)
	w.eng.RunFor(200 * sim.Millisecond)
	if cli.Closed() || srv.Closed() {
		t.Fatal("healthy idle channel was reclaimed")
	}
	if w.ctxs[0].Stats.KeepaliveProbes == 0 {
		t.Fatal("idle channel should have been probed")
	}
	// Probes are zero-byte writes: the server application saw nothing.
	if srv.Counters.MsgsRecv != 0 {
		t.Fatal("keepalive probes woke the peer application")
	}
}

// TestRequestTimeout: RequestTimeout is the one request deadline — a request
// the server swallows fails with ErrTimeout and is counted.
func TestRequestTimeout(t *testing.T) {
	w := newWorld(t, 2, timeoutKnobs)
	cli, srv := w.connect(t, 0, 1, 5008)
	srv.OnMessage(func(m *Msg) {}) // swallow
	var gotErr error
	cli.SendMsg([]byte("hello?"), 0, func(m *Msg, err error) { gotErr = err })
	w.eng.RunFor(50 * sim.Millisecond)
	if gotErr != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", gotErr)
	}
	if w.ctxs[0].Stats.ReqTimeouts != 1 {
		t.Fatalf("timeout counter = %d", w.ctxs[0].Stats.ReqTimeouts)
	}
}

// timeoutKnobs isolates the request deadline: a short RequestTimeout, no
// keepalive probes.
func timeoutKnobs(_ int, cfg *Config) {
	cfg.RequestTimeout = 5 * sim.Millisecond
	cfg.StatsInterval = 1 * sim.Millisecond
	cfg.KeepaliveInterval = 0
}

// TestRequestRetryExactlyOnce: nothing re-issues a request. A black-holed
// request runs its handler once and its callback once, with ErrTimeout, and
// stays that way long after its deadline.
func TestRequestRetryExactlyOnce(t *testing.T) {
	w := newWorld(t, 2, timeoutKnobs)
	cli, srv := w.connect(t, 0, 1, 5601)
	handled := 0
	srv.OnMessage(func(m *Msg) { handled++ }) // never reply
	calls := 0
	var gotErr error
	cli.SendMsg([]byte("doomed"), 0, func(m *Msg, err error) { calls, gotErr = calls+1, err })
	w.eng.RunFor(200 * sim.Millisecond)
	if handled != 1 || calls != 1 || gotErr != ErrTimeout {
		t.Fatalf("handler ran %d times, callback %d times (last %v); want 1, 1, ErrTimeout", handled, calls, gotErr)
	}
	if cli.Counters.ReqsSent != 1 || w.ctxs[0].Stats.ReqTimeouts != 1 {
		t.Fatalf("%d requests sent, %d timeouts; want 1 of each", cli.Counters.ReqsSent, w.ctxs[0].Stats.ReqTimeouts)
	}
}

// TestRetryTokenOrderDeterministic: requests that expire in one scan fail in
// issue order — never in a map walk's order — each leaving one req.timeout
// flight record, their MsgIDs ascending. Expiry order is part of the
// deterministic grayhaul digest.
func TestRetryTokenOrderDeterministic(t *testing.T) {
	w := newWorld(t, 2, timeoutKnobs)
	cli, srv := w.connect(t, 0, 1, 5605)
	handled := 0
	srv.OnMessage(func(m *Msg) { handled++ }) // black hole: every request expires

	// Issued on one instant, n requests expire in the same scan.
	const n = 20
	var failed []int
	for i := 0; i < n; i++ {
		cli.SendMsg(nil, 8, func(_ *Msg, err error) {
			if err == ErrTimeout {
				failed = append(failed, i)
			}
		})
	}
	w.eng.RunFor(50 * sim.Millisecond)
	if len(failed) != n || !slices.IsSorted(failed) {
		t.Fatalf("callbacks failed in order %v, want all %d in issue order", failed, n)
	}
	if handled != n || w.ctxs[0].Stats.ReqTimeouts != n {
		t.Fatalf("handler ran %d times, %d timeouts; want %d of each", handled, w.ctxs[0].Stats.ReqTimeouts, n)
	}
	var ids []int64
	for _, e := range w.ctxs[0].tel.Flight.ForceDump(w.eng.Now(), "timeout audit").Events {
		if e.Cat == telemetry.CatReqTimeout {
			ids = append(ids, e.A)
		}
	}
	if len(ids) != n {
		t.Fatalf("%d req.timeout records, want %d", len(ids), n)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("req.timeout records carry MsgIDs %v, want them ascending", ids)
		}
	}
}

// TestPingIsAnsweredOnce: a ping waits for its pong as a request waits for its
// response, so whatever ends a request's wait ends the ping's too, exactly
// once: teardown (ErrChannelClosed), RequestTimeout with the peer's NIC
// crashed (ErrTimeout, as for the request issued beside it) and a drain forced
// at drainDeadline (ErrDraining; the peer's thread is busy past the deadline,
// so the pong that lands later finds no waiter).
// Every case ends at rest.
func TestPingIsAnsweredOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		knobs func(int, *Config)
		cut   func(w *testWorld, cli, srv *Channel) // ends the ping's wait
		want  error
	}{
		{"close", nil, func(w *testWorld, cli, srv *Channel) {
			cli.Close()
			srv.Close()
		}, ErrChannelClosed},
		{"timeout", timeoutKnobs, func(w *testWorld, _, _ *Channel) { w.nics[1].Crash() }, ErrTimeout},
		{"forced-drain", nil, func(w *testWorld, _, _ *Channel) {
			w.ctxs[1].InjectWork(2 * drainDeadline)
			start := w.eng.Now()
			if err := w.ctxs[0].Drain(func([]byte) {
				if now := w.eng.Now(); now != start.Add(drainDeadline) {
					t.Errorf("sealed at %v, want the deadline %v", now, start.Add(drainDeadline))
				}
			}); err != nil {
				t.Fatal(err)
			}
		}, ErrDraining},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 2, tc.knobs)
			cli, srv := w.connect(t, 0, 1, 5610)
			srv.OnMessage(func(*Msg) {}) // never replies
			var pings, reqs []error
			cli.Ping(func(_, _ sim.Duration, err error) { pings = append(pings, err) })
			if err := cli.SendMsg([]byte("req"), 0, func(_ *Msg, err error) { reqs = append(reqs, err) }); err != nil {
				t.Fatal(err)
			}
			tc.cut(w, cli, srv)
			w.eng.RunFor(100 * sim.Millisecond)
			if len(pings) != 1 || !errors.Is(pings[0], tc.want) || len(reqs) != 1 || !errors.Is(reqs[0], tc.want) {
				t.Fatalf("ping heard %v, the request %v: want %v once each", pings, reqs, tc.want)
			}
			w.nics[1].Revive() // if the case crashed it
			cli.Close()
			srv.Close()
			w.eng.Run()
			w.checkAtRest(t, 0, 0)
		})
	}
}

// TestQPCacheSpeedsReconnect: a closed channel gives its QP back to the cache
// whether it was idle or still busy — a request posted and not yet completed
// flushes (its waiter hears ErrChannelClosed, its record comes home) — and the
// reconnect pops that very QP, skipping the ~1.5 ms CreateQP. The closed
// handle lets go of it: its QPN reads 0, not the new owner's.
func TestQPCacheSpeedsReconnect(t *testing.T) {
	for _, busy := range []bool{false, true} {
		t.Run(map[bool]string{false: "idle", true: "busy"}[busy], func(t *testing.T) {
			w := newWorld(t, 2, nil)
			c, nic := w.ctxs[0], w.nics[0]
			cli, _ := w.connect(t, 0, 1, 5009)
			qp, qps := cli.lk.qp, nic.NumQPs()
			var reqErr error
			if busy {
				if err := cli.SendMsg(make([]byte, 64), 0, func(_ *Msg, err error) { reqErr = err }); err != nil {
					t.Fatal(err)
				}
				if qp.SendQueueLen() == 0 {
					t.Fatal("the request is not outstanding at the close")
				}
			}
			cli.Close()
			w.eng.Run()
			if c.QPs.Len() != 1 || nic.QP(qp.QPN) != qp || qp.State != rnic.QPReset {
				t.Fatalf("closed channel's QP: cache %d, registered %v, %v; want shelved in RESET", c.QPs.Len(), nic.QP(qp.QPN) == qp, qp.State)
			}
			if busy && reqErr != ErrChannelClosed {
				t.Fatalf("request in flight at the close heard %v, want ErrChannelClosed", reqErr)
			}
			// Reconnect must hit the cache.
			t0 := w.eng.Now()
			var cli2 *Channel
			c.Connect(1, 5009, func(ch *Channel, err error) {
				if err != nil {
					t.Fatalf("reconnect: %v", err)
				}
				cli2 = ch
			})
			w.eng.Run()
			warm := w.eng.Now().Sub(t0)
			if cli2 == nil {
				t.Fatal("reconnect failed")
			}
			if c.QPs.Hits != 1 || cli2.lk.qp != qp || nic.NumQPs() != qps {
				t.Fatalf("reconnect: %d cache hits, same QP %v, %d QPs on the NIC (was %d)", c.QPs.Hits, cli2.lk.qp == qp, nic.NumQPs(), qps)
			}
			if cli.QPN() != 0 {
				t.Fatalf("the closed channel reads QPN %d, its QP's new owner's", cli.QPN())
			}
			// Cold establishment pays ~1.5ms creation that warm skips.
			if warm > 4*sim.Millisecond {
				t.Fatalf("warm reconnect took %v", warm)
			}
			t.Logf("warm reconnect: %v", warm)
			w.checkAtRest(t, 1, 2) // the server still lists the channel only the client closed
		})
	}
}

func TestSetFlagOnlineOffline(t *testing.T) {
	w := newWorld(t, 1, nil)
	c := w.ctxs[0]
	if err := c.SetFlag("keepalive_intv_ms", "25"); err != nil {
		t.Fatal(err)
	}
	if c.cfg.KeepaliveInterval != 25*sim.Millisecond {
		t.Fatalf("flag not applied: %v", c.cfg.KeepaliveInterval)
	}
	if err := c.SetFlag("use_srq", "1"); err == nil {
		t.Fatal("offline flag must be rejected online")
	}
	if err := c.SetFlag("no_such_flag", "1"); err == nil {
		t.Fatal("unknown flag must error")
	}
	if err := c.SetFlag("reqrsp_mode", "on"); err != nil || !c.cfg.ReqRspMode {
		t.Fatalf("reqrsp_mode: %v", err)
	}
	if len(c.FlagLog()) != 2 {
		t.Fatalf("flag log has %d entries", len(c.FlagLog()))
	}
	if len(OnlineFlagNames()) < 5 {
		t.Fatal("online flag registry too small")
	}
}

// TestFlagNamesCoverConfig: every Config field has exactly one name SetFlag
// answers to, online or offline, and the retired knobs are unknown.
func TestFlagNamesCoverConfig(t *testing.T) {
	if got, want := len(onlineFlags)+len(offlineFlagNames), reflect.TypeOf(Config{}).NumField(); got != want {
		t.Fatalf("%d online + %d offline flag names for %d Config fields", len(onlineFlags), len(offlineFlagNames), want)
	}
	seen := map[string]bool{}
	for _, n := range offlineFlagNames {
		if _, online := onlineFlags[n]; online || seen[n] {
			t.Errorf("flag %q is named twice", n)
		}
		seen[n] = true
	}
	c := newWorld(t, 1, nil).ctxs[0]
	for _, n := range []string{"ack_every", "ack_delay_us", "mem_isolation", "request_timeout_ms", "mock_enabled", "stats_interval_ms", "recover_dial_timeout_ms"} {
		if err := c.SetFlag(n, "1"); err == nil || !strings.Contains(err.Error(), "offline parameter") {
			t.Errorf("SetFlag(%q) = %v, want an offline-parameter refusal", n, err)
		}
	}
	// Parameters retired into constants are unknown, not offline.
	for _, n := range []string{"mem_pool_bytes", "mem_highwater", "mem_lowwater", "recover_backoff_ms",
		"proto_ver_min", "drain_deadline_ms", "failback_interval_ms", "path_rehash_limit", "recover_retries", "recover_backoff_max_ms"} {
		if err := c.SetFlag(n, "1"); err == nil || !strings.Contains(err.Error(), "unknown flag") {
			t.Errorf("SetFlag(%q) = %v, want unknown flag", n, err)
		}
	}
}

func TestTracingOneWayLatencyWithSkew(t *testing.T) {
	// Node 1's clock runs 30µs ahead; without sync the one-way numbers
	// are skewed, after SyncClock they are sane.
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	net := verbs.NewCMNetwork()
	mk := func(node fabric.NodeID, skew sim.Duration) *Context {
		host := fab.Host(node)
		nic := rnic.New(eng, host, rnic.DefaultConfig())
		vc := verbs.Open(nic)
		cfg := DefaultConfig()
		cfg.ReqRspMode = true
		return NewContext(Options{Verbs: vc, CM: verbs.NewCM(vc, net, host), Host: host,
			Config: cfg, ClockSkew: skew, Seed: uint64(node) + 7})
	}
	c0 := mk(0, 0)
	c1 := mk(1, 30*sim.Microsecond)
	var srv *Channel
	c1.OnChannel(func(ch *Channel) { srv = ch })
	c1.Listen(6000)
	var cli *Channel
	c0.Connect(1, 6000, func(ch *Channel, err error) { cli = ch })
	eng.Run()
	if cli == nil || srv == nil {
		t.Fatal("setup failed")
	}
	echoServer(srv)

	var offset sim.Duration
	cli.SyncClock(3, func(off sim.Duration, err error) {
		if err != nil {
			t.Fatalf("sync: %v", err)
		}
		offset = off
	})
	eng.Run()
	// True offset is +30µs (peer ahead).
	if offset < 25*sim.Microsecond || offset > 35*sim.Microsecond {
		t.Fatalf("estimated offset %v, want ≈30µs", offset)
	}
	// Server syncs too so its inbound trace records decompose.
	var srvOff sim.Duration
	srv.SyncClock(3, func(off sim.Duration, err error) { srvOff = off })
	eng.Run()
	if srvOff > -25*sim.Microsecond {
		t.Fatalf("server offset %v, want ≈-30µs", srvOff)
	}

	// The per-message estimate goes to the timeline, when it is recording.
	tel := telemetry.For(eng)
	tel.Trace.Enable(1 << 8)
	cli.SendMsg([]byte("traced"), 0, func(*Msg, error) {})
	eng.Run()
	var reqEv *telemetry.Event
	evs := tel.Trace.Events()
	for i := range evs {
		if evs[i].Name == "trace.req" && evs[i].Track == "xrdma.1" {
			reqEv = &evs[i]
		}
	}
	if reqEv == nil {
		t.Fatal("no trace.req instant at server")
	}
	// One-way latency must be positive and a few µs, not ±30µs skewed.
	if oneWay := sim.Duration(reqEv.Arg); oneWay < 1*sim.Microsecond || oneWay > 20*sim.Microsecond {
		t.Fatalf("decomposed one-way %v implausible", oneWay)
	}
}

func TestTracingOverheadSmall(t *testing.T) {
	// req-rsp mode must cost only a few hundred ns per message (§VII-A:
	// +2–4%).
	lat := func(reqrsp bool) sim.Duration {
		w := newWorld(t, 2, func(i int, cfg *Config) { cfg.ReqRspMode = reqrsp })
		cli, srv := w.connect(t, 0, 1, 5010)
		echoServer(srv)
		var total sim.Duration
		const n = 50
		done := 0
		var issue func()
		issue = func() {
			start := w.eng.Now()
			cli.SendMsg([]byte("x"), 0, func(m *Msg, err error) {
				if err != nil {
					t.Fatal(err)
				}
				total += w.eng.Now().Sub(start)
				done++
				if done < n {
					issue()
				}
			})
		}
		issue()
		w.eng.Run()
		if done != n {
			t.Fatalf("completed %d/%d", done, n)
		}
		return total / n
	}
	bare := lat(false)
	traced := lat(true)
	if traced <= bare {
		t.Fatalf("tracing should cost something: bare=%v traced=%v", bare, traced)
	}
	overhead := float64(traced-bare) / float64(bare)
	if overhead > 0.10 {
		t.Fatalf("tracing overhead %.1f%% too high (paper: 2–4%%)", overhead*100)
	}
	t.Logf("bare=%v traced=%v overhead=%.1f%%", bare, traced, overhead*100)
}

func TestXRStatOutput(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5013)
	echoServer(srv)
	for i := 0; i < 10; i++ {
		cli.SendMsg([]byte("stat"), 0, func(*Msg, error) {})
	}
	w.eng.Run()
	out := XRStat(w.ctxs[0])
	if len(out) == 0 || !bytes.Contains([]byte(out), []byte("QPN")) {
		t.Fatalf("XRStat output malformed:\n%s", out)
	}
}

func TestFilterDropsRecovered(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.KeepaliveInterval = 50 * sim.Millisecond })
	cli, srv := w.connect(t, 0, 1, 5014)
	echoServer(srv)
	// 20% drops on node 0's NIC — reliability must recover everything.
	if err := w.ctxs[0].SetFlag("filter_drop_rate", "0.2"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	done := 0
	for i := 0; i < n; i++ {
		cli.SendMsg([]byte("drop me maybe"), 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("request failed under filter: %v", err)
			}
			done++
		})
	}
	w.eng.RunFor(2 * sim.Second)
	if done != n {
		t.Fatalf("completed %d/%d under 20%% drops", done, n)
	}
	if w.nics[0].Counters.Retransmits == 0 {
		t.Fatal("drops should have forced retransmissions")
	}
	// Turn the filter off and verify it stops interfering.
	w.ctxs[0].SetFlag("filter_drop_rate", "0")
	before := w.nics[0].Counters.Retransmits
	done = 0
	for i := 0; i < 50; i++ {
		cli.SendMsg([]byte("clean"), 0, func(m *Msg, err error) { done++ })
	}
	w.eng.RunFor(1 * sim.Second)
	if done != 50 {
		t.Fatalf("clean run incomplete: %d/50", done)
	}
	if w.nics[0].Counters.Retransmits != before {
		t.Fatal("retransmissions continued after filter removal")
	}
}

func TestFilterDelayInflatesLatency(t *testing.T) {
	measure := func(delayUS string) sim.Duration {
		w := newWorld(t, 2, nil)
		cli, srv := w.connect(t, 0, 1, 5015)
		echoServer(srv)
		if delayUS != "" {
			if err := w.ctxs[0].SetFlag("filter_delay_us", delayUS); err != nil {
				t.Fatal(err)
			}
		}
		var rtt sim.Duration
		start := w.eng.Now()
		cli.SendMsg([]byte("d"), 0, func(*Msg, error) { rtt = w.eng.Now().Sub(start) })
		w.eng.Run()
		return rtt
	}
	base := measure("")
	slow := measure("100")
	if slow < base+90*sim.Microsecond {
		t.Fatalf("filter delay not applied: base=%v slow=%v", base, slow)
	}
}

func TestMockFallbackKeepsChannelAlive(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.MockEnabled = true
		cfg.KeepaliveInterval = 2 * sim.Millisecond
		cfg.KeepaliveTimeout = 8 * sim.Millisecond
	})
	cli, srv := w.connect(t, 0, 1, 5016)
	echoServer(srv)
	// Sanity over RDMA first.
	ok := 0
	cli.SendMsg([]byte("rdma"), 0, func(m *Msg, err error) {
		if err == nil {
			ok++
		}
	})
	w.eng.Run()
	if ok != 1 {
		t.Fatal("RDMA path broken before mock test")
	}
	// Break the RDMA plane only: crash+revive the server NIC so QPs die
	// but the (separate) TCP stack keeps running.
	w.nics[1].Crash()
	w.eng.RunFor(30 * sim.Millisecond)
	w.nics[1].Revive()
	// Failure detection waits out the full RC retry horizon before
	// declaring the peer dead, so give the switch time to happen.
	w.eng.RunFor(400 * sim.Millisecond)
	if cli.Closed() || !cli.Mocked() {
		t.Fatalf("client channel should be mocked: closed=%v mocked=%v", cli.Closed(), cli.Mocked())
	}
	if srv.Closed() || !srv.Mocked() {
		t.Fatalf("server channel should be mocked: closed=%v mocked=%v", srv.Closed(), srv.Mocked())
	}
	// Traffic continues over TCP.
	got := 0
	cli.SendMsg([]byte("over tcp"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("mocked request: %v", err)
		}
		if string(m.Data) != "over tcp" {
			t.Fatalf("mock payload corrupted: %q", m.Data)
		}
		got++
	})
	w.eng.RunFor(50 * sim.Millisecond)
	if got != 1 {
		t.Fatal("request over mock never completed")
	}
	if w.ctxs[0].Stats.MockSwitches != 1 {
		t.Fatalf("mock switches = %d", w.ctxs[0].Stats.MockSwitches)
	}
}

func TestForceMock(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.MockEnabled = true })
	cli, srv := w.connect(t, 0, 1, 5017)
	echoServer(srv)
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	if err := srv.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * sim.Millisecond)
	got := 0
	cli.SendMsg([]byte("manual mock"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("force-mocked request: %v", err)
		}
		got++
	})
	w.eng.RunFor(20 * sim.Millisecond)
	if got != 1 {
		t.Fatal("request over forced mock never completed")
	}
}

func TestSlowPollDetection(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.PollingWarnCycle = 20 * sim.Microsecond
	})
	cli, srv := w.connect(t, 0, 1, 5018)
	echoServer(srv)
	w.recordIncidents()
	before := w.ctxs[0].Stats.SlowPolls
	// The application hogs the thread for 200µs — like the allocator
	// lock incident in §VII-D.
	w.ctxs[0].InjectWork(200 * sim.Microsecond)
	cli.SendMsg([]byte("x"), 0, func(*Msg, error) {})
	w.eng.Run()
	if w.ctxs[0].Stats.SlowPolls == before {
		t.Fatal("slow poll not detected")
	}
	if gaps := w.incidents(t, "xrdma.0", telemetry.CatSlowPoll); int64(len(gaps)) != w.ctxs[0].Stats.SlowPolls-before {
		t.Fatalf("%d slow polls flight-recorded, %d counted", len(gaps), w.ctxs[0].Stats.SlowPolls-before)
	}
}

// TestEventModeSleepIsNotSlowPoll: a poller that went to sleep in epoll after
// its idle polls has not hogged the thread. Waking it — however long it slept —
// must not count, flight-record or log a slow-poll incident; §VI-A method II is
// about the application, and TestSlowPollDetection above still catches that.
func TestEventModeSleepIsNotSlowPoll(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5018)
	echoServer(srv)
	w.eng.RunFor(5 * sim.Millisecond) // idle: both pollers are long asleep
	for i, c := range w.ctxs {
		if !c.eventMode {
			t.Fatalf("node %d never entered event mode", i)
		}
	}
	before := [2]int64{w.ctxs[0].Stats.SlowPolls, w.ctxs[1].Stats.SlowPolls}
	w.recordIncidents()
	wakes := w.ctxs[0].Stats.EventWakes + w.ctxs[1].Stats.EventWakes
	answered := false
	cli.SendMsg([]byte("x"), 0, func(_ *Msg, err error) { answered = err == nil })
	w.eng.RunFor(5 * sim.Millisecond)
	if !answered || w.ctxs[0].Stats.EventWakes+w.ctxs[1].Stats.EventWakes == wakes {
		t.Fatalf("answered=%v with no epoll wake: the test did not exercise the sleep", answered)
	}
	for i, c := range w.ctxs {
		if got := c.Stats.SlowPolls - before[i]; got != 0 {
			t.Errorf("node %d: %d slow polls counted for sleeping in epoll", i, got)
		}
		if gaps := w.incidents(t, c.track, telemetry.CatSlowPoll); len(gaps) != 0 {
			t.Errorf("node %d flight-recorded slow polls of %v ns", i, gaps)
		}
	}
}

func TestMonitorSamples(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.StatsInterval = 1 * sim.Millisecond })
	cli, srv := w.connect(t, 0, 1, 5019)
	echoServer(srv)
	for i := 0; i < 20; i++ {
		cli.SendMsg(nil, 1024, func(*Msg, error) {})
	}
	w.eng.RunFor(20 * sim.Millisecond)
	a := w.ctxs[0].agent
	if a != xrmon.For(w.eng).AgentFor(0) {
		t.Fatal("the context samples an agent the collector does not list")
	}
	if a.Len() < 5 {
		t.Fatalf("the agent kept %d ticks", a.Len())
	}
	if a.Abs(xrmon.SlotChannels) != 1 || a.Abs(xrmon.SlotMsgsSent) == 0 || a.Abs(xrmon.SlotMemOccupied) == 0 {
		t.Fatalf("newest column wrong: channels=%d msgs_sent=%d mem_occupied=%d",
			a.Abs(xrmon.SlotChannels), a.Abs(xrmon.SlotMsgsSent), a.Abs(xrmon.SlotMemOccupied))
	}
}

// The agent's ring is the node's only history: however long the run, it
// holds the last xrmon.Window ticks, each reconstructed (Abs − LastN, the
// arithmetic xr-stat prints) exactly as the newest column read when it was
// sampled — and a tick costs no memory.
func TestMonitorHistoryIsAgentView(t *testing.T) {
	// The test drives the ticks itself; park the housekeeping timer's.
	w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.StatsInterval = sim.Second })
	cli, srv := w.connect(t, 0, 1, 5021)
	echoServer(srv)
	a := w.ctxs[0].agent
	view := func(k int) (v [xrmon.NodeSlots + 1]int64) {
		for s := 0; s < xrmon.NodeSlots; s++ {
			v[s] = a.Abs(s) - a.LastN(s, k)
		}
		v[xrmon.NodeSlots] = int64(a.At(k))
		return v
	}
	var seen [][xrmon.NodeSlots + 1]int64
	for i := 0; i < 1000; i++ {
		cli.SendMsg(nil, 64, func(*Msg, error) {})
		w.eng.RunFor(20 * sim.Microsecond)
		a.Sample(w.eng.Now())
		seen = append(seen, view(0))
	}
	if a.Len() != xrmon.Window {
		t.Fatalf("the agent kept %d ticks, want xrmon.Window=%d", a.Len(), xrmon.Window)
	}
	for k := 0; k < a.Len(); k++ {
		if got, want := view(k), seen[len(seen)-1-k]; got != want {
			t.Fatalf("tick %d back = %v, want what the newest column read then: %v", k, got, want)
		}
	}
	if oldest := view(a.Len() - 1); view(0)[xrmon.SlotMsgsSent] <= oldest[xrmon.SlotMsgsSent] {
		t.Fatalf("window shows no traffic: %v .. %v", oldest, view(0))
	}
	if n := testing.AllocsPerRun(100, func() { a.Sample(w.eng.Now()) }); n != 0 {
		t.Fatalf("an agent tick allocates %v objects; it must keep nothing", n)
	}
}

func TestChannelCloseReleasesResources(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5020)
	echoServer(srv)
	for i := 0; i < 10; i++ {
		cli.SendMsg([]byte("work"), 0, func(*Msg, error) {})
	}
	w.eng.Run()
	cli.Close()
	w.eng.Run()
	w.checkAtRest(t, 0, 1) // the server end stays open: an exclusive close tells the peer nothing
	if c := w.ctxs[0]; c.QPs.Len() != 1 {
		t.Fatalf("QP cache has %d entries, want 1", c.QPs.Len())
	}
	// Pending requests fail on close.
	w2 := newWorld(t, 2, nil)
	cli2, srv2 := w2.connect(t, 0, 1, 5021)
	srv2.OnMessage(func(m *Msg) {}) // no reply
	var gotErr error
	cli2.SendMsg([]byte("never answered"), 0, func(m *Msg, err error) { gotErr = err })
	w2.eng.RunFor(1 * sim.Millisecond)
	cli2.Close()
	w2.eng.Run()
	if gotErr != ErrChannelClosed {
		t.Fatalf("pending request error = %v", gotErr)
	}
}

func TestSRQMode(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.UseSRQ = true
		cfg.SRQSize = 256
	})
	cli, srv := w.connect(t, 0, 1, 5022)
	echoServer(srv)
	done := 0
	for i := 0; i < 100; i++ {
		cli.SendMsg([]byte("via srq"), 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("srq request: %v", err)
			}
			done++
		})
	}
	w.eng.Run()
	if done != 100 {
		t.Fatalf("completed %d/100 in SRQ mode", done)
	}
}

func TestNopBreaksStall(t *testing.T) {
	// Pathological config: acks only after 1000 receives and a very long
	// delayed-ack timer; the NOP path is then the only unblocker.
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.AckEvery = 1000
		cfg.AckDelay = 10 * sim.Second
		cfg.WindowDepth = 4
	})
	cli, srv := w.connect(t, 0, 1, 5023)
	srv.OnMessage(func(m *Msg) {}) // one-way sink, no replies
	const n = 40
	for i := 0; i < n; i++ {
		cli.SendMsg(nil, 64, nil)
	}
	w.eng.RunFor(1 * sim.Second)
	if srv.Counters.MsgsRecv != n {
		t.Fatalf("NOP failed to unblock: %d/%d delivered (nops=%d)",
			srv.Counters.MsgsRecv, n, cli.Counters.NopsSent)
	}
	if cli.Counters.NopsSent == 0 {
		t.Fatal("expected NOP messages under ack starvation")
	}
}

// TestBreakerWaitsForAStall holds the deadlock breaker's two halves. Idle, it
// fires nothing: a connected two-node world runs 100 ms on a handful of
// events per context, where a 500 µs scan ticking unconditionally costs 200.
// Stalled, its NOP goes out at the instant a tick every deadlockScan from the
// context's start produced: the first such instant after the stall that is a
// full period past the channel's last progress. A stall at a grid instant
// waits for the next one.
func TestBreakerWaitsForAStall(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.AckEvery = 1000
		cfg.AckDelay = 10 * sim.Second
		cfg.WindowDepth = 4
		cfg.KeepaliveInterval = 0
	})
	cli, srv := w.connect(t, 0, 1, 5023)
	srv.OnMessage(func(m *Msg) {})
	w.eng.RunFor(sim.Millisecond) // the pollers park
	fired := w.eng.Fired()
	w.eng.RunFor(100 * sim.Millisecond)
	idle := w.eng.Fired() - fired
	t.Logf("an idle 100 ms: %d events", idle)
	if idle > 2*40 {
		t.Fatalf("an idle 100 ms fired %d events, want ≤ 40 per context", idle)
	}

	// The second stall follows the first's progress at once, so its first
	// tick finds the channel too recently moving and re-arms. The third
	// stalls on the grid, a quiet millisecond later.
	w.eng.RunFor(123 * sim.Microsecond) // off the grid
	for round := 1; round <= 3; round++ {
		if round == 3 {
			w.eng.RunFor(sim.Millisecond)
			w.eng.RunUntil((w.eng.Now()/sim.Time(deadlockScan) + 1) * sim.Time(deadlockScan))
		}
		stallAt := w.eng.Now()
		for range 8 {
			cli.SendMsg(nil, 64, nil)
		}
		if cli.ctx.stalled != 1 {
			t.Fatalf("stall %d: %d riders stalled, want 1", round, cli.ctx.stalled)
		}
		want := (stallAt/sim.Time(deadlockScan) + 1) * sim.Time(deadlockScan) // contexts start at 0
		for want.Sub(cli.lastProgress) < deadlockScan {
			want = want.Add(deadlockScan)
		}
		for nops := cli.Counters.NopsSent; cli.Counters.NopsSent == nops && w.eng.Step(); {
		}
		if now := w.eng.Now(); now != want {
			t.Fatalf("stall %d: NOP at %v for a stall at %v, want the grid instant %v", round, now, stallAt, want)
		}
		for cli.ctx.stalled > 0 && w.eng.Step() {
		}
	}
	w.eng.RunFor(10 * sim.Millisecond)
	if srv.Counters.MsgsRecv != 24 || cli.ctx.stalled != 0 {
		t.Fatalf("%d/24 delivered, %d stalled", srv.Counters.MsgsRecv, cli.ctx.stalled)
	}
}

func TestHybridPollingEventWake(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.KeepaliveInterval = 0 })
	cli, srv := w.connect(t, 0, 1, 5024)
	echoServer(srv)
	// Long quiet period → contexts fall into event mode.
	w.eng.RunFor(50 * sim.Millisecond)
	if !w.ctxs[0].eventMode && !w.ctxs[1].eventMode {
		t.Fatal("contexts never entered event mode while idle")
	}
	wakesBefore := w.ctxs[1].Stats.EventWakes
	done := false
	cli.SendMsg([]byte("wake up"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.eng.RunFor(10 * sim.Millisecond)
	if !done {
		t.Fatal("request across event-mode contexts never completed")
	}
	if w.ctxs[1].Stats.EventWakes == wakesBefore {
		t.Fatal("server context was never event-woken")
	}
}

func TestMemIsolationDetectsOverrun(t *testing.T) {
	w := newWorld(t, 1, func(i int, cfg *Config) { cfg.MemIsolation = true })
	c := w.ctxs[0]
	var buf Buffer
	c.Mem.Alloc(128, func(b Buffer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	w.eng.Run()
	if !buf.Valid() {
		t.Fatal("alloc failed")
	}
	if !c.Mem.CheckIntegrity(buf) {
		t.Fatal("fresh buffer fails integrity")
	}
	// Out-of-bound write: one byte past the end.
	raw := buf.MR.Slice(buf.Addr, buf.Len+1)
	raw[buf.Len] = 0xFF
	if c.Mem.CheckIntegrity(buf) {
		t.Fatal("overrun not detected")
	}
	c.Mem.Free(buf)
	if c.Mem.Corruptions != 1 {
		t.Fatalf("corruption counter = %d", c.Mem.Corruptions)
	}
}

// TestCanariesMakeTheirBytes: an isolated buffer's canaries are painted and
// checked as two 8 B slices, so a 64 KiB buffer never written makes 16 bytes
// of host storage, not its whole block; an overrun into the tail canary is
// still caught.
func TestCanariesMakeTheirBytes(t *testing.T) {
	w := newWorld(t, 1, func(i int, cfg *Config) { cfg.MemIsolation = true })
	c := w.ctxs[0]
	made := func() (n int) {
		for _, r := range c.Mem.regions {
			n += r.mr.Made()
		}
		return n
	}
	before := made()
	var buf Buffer
	c.Mem.Alloc(64<<10, func(b Buffer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	w.eng.Run()
	if !buf.Valid() {
		t.Fatal("alloc failed")
	}
	if !c.Mem.CheckIntegrity(buf) {
		t.Fatal("fresh buffer fails integrity")
	}
	if got := made() - before; got > 2*canaryLen {
		t.Errorf("an unwritten isolated 64 KiB buffer made %d bytes, want <= %d", got, 2*canaryLen)
	}
	buf.MR.Slice(buf.Addr+uint64(buf.Len), 1)[0] = 0xFF
	if c.Mem.CheckIntegrity(buf) {
		t.Fatal("overrun into the tail canary not detected")
	}
}

func TestContextCloseShutsDown(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5025)
	_ = srv
	w.ctxs[0].Close()
	w.eng.Run()
	if !cli.Closed() {
		t.Fatal("context close left channels open")
	}
	if err := cli.SendMsg([]byte("x"), 0, nil); err != ErrChannelClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestConcurrentChannelsIndependentWindows(t *testing.T) {
	w := newWorld(t, 3, nil)
	cli1, srv1 := w.connect(t, 0, 1, 5026)
	cli2, srv2 := w.connect(t, 0, 2, 5027)
	echoServer(srv1)
	echoServer(srv2)
	done1, done2 := 0, 0
	for i := 0; i < 100; i++ {
		cli1.SendMsg(nil, 256, func(*Msg, error) { done1++ })
		cli2.SendMsg(nil, 256, func(*Msg, error) { done2++ })
	}
	w.eng.Run()
	if done1 != 100 || done2 != 100 {
		t.Fatalf("channels interfered: %d/%d", done1, done2)
	}
}
