package xrdma

import (
	"encoding/binary"
	"fmt"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
)

// idStream drives a steady stream of id-stamped requests over ch — 16 bytes,
// or with bigEvery a 64 KiB one mixed in — and tallies exact delivery on
// the server side.
type idStream struct {
	sent     uint64
	sendErrs int
	failed   int    // requests whose callback reported an error
	bigEvery uint64 // every Nth request is a 64 KiB rendezvous (0 = never)
	resps    map[uint64]int
	recvd    map[uint64]int
}

func newIDStream(srv *Channel) *idStream {
	s := &idStream{resps: map[uint64]int{}, recvd: map[uint64]int{}}
	srv.OnMessage(func(m *Msg) {
		id := binary.LittleEndian.Uint64(m.Data)
		s.recvd[id]++
		m.Reply(m.Data[:8], 0)
	})
	return s
}

// run issues one request every interval until stop (relative to now).
func (s *idStream) run(eng *sim.Engine, cli *Channel, interval, stop sim.Duration) {
	start := eng.Now()
	var tick func()
	tick = func() {
		if eng.Now().Sub(start) >= stop {
			return
		}
		id := s.sent
		s.sent++
		buf := make([]byte, 16)
		if s.bigEvery > 0 && id%s.bigEvery == 0 {
			buf = make([]byte, 64<<10)
		}
		binary.LittleEndian.PutUint64(buf, id)
		if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err == nil {
				s.resps[binary.LittleEndian.Uint64(m.Data)]++
			} else {
				s.failed++
			}
		}); err != nil {
			s.sendErrs++
		}
		eng.AfterBg(interval, tick)
	}
	eng.AfterBg(interval, tick)
}

// tally counts deliveries that happened more than once and not at all.
func (s *idStream) tally() (dups, lost int) {
	for id := uint64(0); id < s.sent; id++ {
		switch n := s.recvd[id]; {
		case n == 0:
			lost++
		case n > 1:
			dups++
		}
	}
	return dups, lost
}

// check asserts exactly-once delivery and full response coverage.
func (s *idStream) check(t *testing.T) {
	t.Helper()
	if dups, lost := s.tally(); dups != 0 || lost != 0 {
		t.Errorf("of %d sent: %d duplicated, %d lost", s.sent, dups, lost)
	}
	if len(s.resps) != int(s.sent) {
		t.Errorf("%d responses for %d requests", len(s.resps), s.sent)
	}
	if s.sendErrs != 0 {
		t.Errorf("%d sends rejected", s.sendErrs)
	}
}

// TestRecoveryConformance drives one fault schedule per row through both
// kinds of link — an exclusive QP with its one channel and a shared QP
// with four riders — and holds each to the same contract: every rider's
// ledger exactly-once, recoveries counted per link (never amplified per
// rider), and the world at rest (checkAtRest) once the channels close. Node 0
// is the redialing side in both kinds (lower id / mux initiator).
//
// The third kind is the degenerate case the rider model claims: a shared link
// with exactly one rider. Its rider must see the health transitions and the
// close the exclusive link's rider sees, on both ends (retry loops collapsed:
// the two kinds' dial timeouts differ) — except where the exclusive rider has
// somewhere else to go, the Mock fallback. The fourth is an exclusive link
// whose receives go to the context's SRQ, which a NIC restart has to rebuild.
func TestRecoveryConformance(t *testing.T) {
	type world struct {
		*testWorld
		shared   bool
		cli, srv []*Channel
	}
	rows := []struct {
		name      string
		fault     func(w *world)
		exhausted bool // the fault outlives the retry budget
		noMock    bool // no kind has a fallback: exhaustion is death for all
		check     func(t *testing.T, w *world)
	}{
		{name: "qp-error-mid-stream", fault: func(w *world) {
			// A hardware QP error on the side that cannot redial: a READ
			// under a bogus rkey is NAKed and breaks node 1's QP with the
			// wire intact. Node 0 has to find out on its own (exclusive) or
			// be told (shared) and re-establish.
			w.eng.AfterBg(20*sim.Millisecond, func() {
				w.srv[0].ReadRemote(RemoteWindow{ID: 1, Addr: 0xdead0000, RKey: 0xbad, Len: 64}, 0, 64, func([]byte, error) {})
			})
		}},
		{name: "dial-timeout-then-success", fault: func(w *world) {
			// A pulled-and-replugged server cable: redials time out while
			// it is down and the first one after it returns is adopted.
			w.eng.AfterBg(20*sim.Millisecond, func() { w.fab.SetHostLink(1, false) })
			w.eng.AfterBg(60*sim.Millisecond, func() { w.fab.SetHostLink(1, true) })
		}, check: func(t *testing.T, w *world) {
			if s := w.ctxs[0].Stats; s.RecoverAttempts <= s.Recoveries {
				t.Errorf("RecoverAttempts=%d Recoveries=%d: no dial ever timed out", s.RecoverAttempts, s.Recoveries)
			}
		}},
		{name: "peer-initiated", fault: func(w *world) {
			// Only the dialer sees a fault; its redial lands on a side that
			// still believes the link healthy and must degrade first.
			w.eng.AfterBg(20*sim.Millisecond, func() { w.cli[0].fail(ErrPeerDead) })
		}, check: func(t *testing.T, w *world) {
			for i, c := range w.ctxs {
				if s := c.Stats; s.Degraded != 1 || s.Recoveries != 1 {
					t.Errorf("node %d: Degraded=%d Recoveries=%d, want 1/1", i, s.Degraded, s.Recoveries)
				}
			}
			if got := w.ctxs[0].Stats.RecoverAttempts; got != 1 {
				t.Errorf("RecoverAttempts=%d on an intact wire, want 1", got)
			}
		}},
		{name: "nic-restart-dead-staging", fault: func(w *world) {
			// The dialer reboots with rendezvous payloads staged and
			// unacked: their registered memory dies with the NIC and the
			// replay must restage them from the retained data.
			w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[0].Crash() })
			w.eng.AfterBg(30*sim.Millisecond, func() {
				w.nics[0].Restart()
				w.ctxs[0].OnNICRestart()
			})
		}},
		{name: "retry-budget-exhausted", exhausted: true, fault: func(w *world) {
			w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
		}, check: func(t *testing.T, w *world) {
			// The whole budget is spent, and nothing more — except on the
			// exclusive link, whose Mock fallback keeps probing for failback.
			s, want := w.ctxs[0].Stats, int64(w.ctxs[0].cfg.RecoverRetries)
			if s.Recoveries != 0 || s.RecoverAttempts < want || (w.shared && s.RecoverAttempts != want) {
				t.Errorf("Recoveries=%d RecoverAttempts=%d, want 0/%d", s.Recoveries, s.RecoverAttempts, want)
			}
		}},
		{name: "peer-death-no-fallback", exhausted: true, noMock: true, fault: func(w *world) {
			// The same death with no Mock plane anywhere: whichever detector
			// fires (RC retry exhaustion, keepalive), giveUp is terminal for
			// one rider exactly as it is for four.
			w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
		}},
	}
	kinds := []struct {
		name   string
		riders int // 0 = an exclusive link
		srq    bool
	}{{"exclusive", 0, false}, {"shared", 4, true}, {"shared-one-rider", 1, true}, {"exclusive-srq", 0, true}}
	traces := map[string]string{} // kind/row → rider 0's health-and-close trace, both ends
	for _, kind := range kinds {
		for _, row := range rows {
			kind, row, shared, riders := kind, row, kind.riders > 0, kind.riders
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				w := &world{shared: shared, testWorld: newRecoverWorld(t, 2, func(_ int, cfg *Config) {
					// Room for both sides to create a QP inside one dial: with
					// cold QP caches the world's 5 ms expires as the REP lands.
					cfg.RecoverDialTimeout = 10 * sim.Millisecond
					cfg.UseSRQ = kind.srq
					if shared {
						cfg.QPsPerPeer = 1
					}
					if shared || row.noMock {
						cfg.MockEnabled = false // muxed channels have no per-channel mock
					}
				})}
				if shared {
					w.cli, w.srv = openMuxed(t, w.testWorld, 0, 1, 6002, riders)
				} else {
					cli, srv := w.connect(t, 0, 1, 5000)
					w.cli, w.srv = []*Channel{cli}, []*Channel{srv}
				}
				var trace [2][]string
				for end, ch := range []*Channel{w.cli[0], w.srv[0]} {
					note := func(ev string) {
						tr := append(trace[end], ev)
						if n := len(tr); n >= 4 && tr[n-1] == tr[n-3] && tr[n-2] == tr[n-4] {
							tr = tr[:n-2] // one more lap of a retry loop
						}
						trace[end] = tr
					}
					ch.OnHealthChange(func(h HealthState) { note(h.String()) })
					ch.OnClose(func(err error) { note(fmt.Sprintf("closed(broken=%v)", err != nil)) })
				}
				streams := make([]*idStream, len(w.cli))
				for k := range w.cli {
					streams[k] = newIDStream(w.srv[k])
					streams[k].bigEvery = 16 // 16 B inline mixed with 64 KiB rendezvous, on every transport
					streams[k].run(w.eng, w.cli[k], 500*sim.Microsecond, 150*sim.Millisecond)
				}
				row.fault(w)
				w.eng.RunFor(600 * sim.Millisecond)

				s0 := w.ctxs[0].Stats
				if s0.Degraded == 0 {
					t.Fatal("fault never detected — row is vacuous")
				}
				// The QP is the failure domain: degradations and recoveries are
				// counted per link, never amplified per rider.
				if n := int64(riders); n > 1 && (s0.Degraded >= n || s0.Recoveries >= n) {
					t.Errorf("Degraded=%d Recoveries=%d for %d riders on 1 QP — per-rider amplification", s0.Degraded, s0.Recoveries, riders)
				}
				for k, st := range streams {
					if st.sent == 0 {
						t.Fatalf("stream %d sent nothing", k)
					}
					switch {
					case !row.exhausted:
						for _, ch := range []*Channel{w.cli[k], w.srv[k]} {
							if ch.Health() != HealthHealthy || ch.Mocked() {
								t.Fatalf("rider %d ended health=%v mocked=%v, want healthy over RDMA", k, ch.Health(), ch.Mocked())
							}
						}
						st.check(t)
					case shared || row.noMock:
						// A link beyond recovery takes its riders down: nothing
						// twice, and every request answered or failed.
						if !w.cli[k].Closed() || !w.srv[k].Closed() {
							t.Fatalf("rider %d survived an exhausted link", k)
						}
						if dups, _ := st.tally(); dups != 0 || len(st.resps)+st.failed != int(st.sent) {
							t.Errorf("rider %d: %d dups, %d answered + %d failed of %d sent", k, dups, len(st.resps), st.failed, st.sent)
						}
					default:
						if !w.cli[k].Mocked() || !w.srv[k].Mocked() {
							t.Fatalf("mocked: cli=%v srv=%v, want both on fallback", w.cli[k].Mocked(), w.srv[k].Mocked())
						}
						st.check(t)
					}
				}
				if !row.exhausted && s0.Recoveries == 0 {
					t.Fatal("link never re-established RDMA")
				}
				if row.check != nil {
					row.check(t, w)
				}
				traces[kind.name+"/"+row.name] = fmt.Sprintf("cli %v srv %v", trace[0], trace[1])

				for k := range w.cli {
					w.cli[k].Close()
					w.srv[k].Close()
				}
				w.eng.RunFor(50 * sim.Millisecond)
				// Nothing left, except that a shared QP outlives its last rider
				// (the pool keeps it for the next attach). A redial that timed
				// out is cancelled, not abandoned to the CM: dial-timeout-then-
				// success and retry-budget-exhausted used to strand one INIT QP
				// and one pending dial per timeout.
				pool := 0
				if shared && !row.exhausted {
					pool = 1
				}
				w.checkAtRest(t, pool, pool)
			})
		}
	}
	for _, row := range rows {
		if row.exhausted && !row.noMock {
			continue // the exclusive rider falls back to Mock; a muxed one cannot
		}
		one, excl := traces["shared-one-rider/"+row.name], traces["exclusive/"+row.name]
		if one != excl || one == "" {
			t.Errorf("%s: a shared link's one rider saw\n\t%s\nthe exclusive link's rider saw\n\t%s", row.name, one, excl)
		}
	}
}

// TestPermanentNicLossFallsBackToMock: a dead HCA with a living TCP stack
// must land both ends on the Mock fallback and keep serving.
func TestPermanentNicLossFallsBackToMock(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 200*sim.Millisecond)

	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.RunFor(500 * sim.Millisecond)

	if !cli.Mocked() || !srv.Mocked() {
		t.Fatalf("mocked: cli=%v srv=%v, want both on fallback", cli.Mocked(), srv.Mocked())
	}
	if cli.closed || srv.closed {
		t.Fatal("channel torn down instead of falling back")
	}
	if w.ctxs[0].Stats.MockSwitches == 0 {
		t.Fatal("no mock switch recorded")
	}
	s.check(t)

	// The fallback still carries fresh traffic.
	var echoed bool
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, 1<<40)
	s.recvd[1<<40] = -1 // out-of-stream probe; pre-seed so check() stays clean
	if err := cli.SendMsg(buf, 0, func(m *Msg, err error) { echoed = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(20 * sim.Millisecond)
	if !echoed {
		t.Fatal("request over established fallback got no response")
	}
}

// TestFailbackRestoresRDMA: once the crashed HCA reboots, the periodic
// failback probe must pull the channel off the Mock fallback and back
// onto a fresh QP — exactly once per message, across both cutovers.
func TestFailbackRestoresRDMA(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 400*sim.Millisecond)

	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.AfterBg(250*sim.Millisecond, func() {
		w.nics[1].Restart()
		w.ctxs[1].OnNICRestart()
	})
	w.eng.RunFor(800 * sim.Millisecond)

	if cli.Health() != HealthHealthy || cli.Mocked() {
		t.Fatalf("client ended health=%v mocked=%v, want healthy over RDMA", cli.Health(), cli.Mocked())
	}
	if srv.Health() != HealthHealthy || srv.Mocked() {
		t.Fatalf("server ended health=%v mocked=%v", srv.Health(), srv.Mocked())
	}
	if w.ctxs[0].Stats.MockSwitches == 0 {
		t.Fatal("never fell back to mock — restart came too early for the test's point")
	}
	if w.ctxs[0].Stats.Failbacks == 0 {
		t.Fatal("no failback recorded")
	}
	s.check(t)
}

// TestMockHelloNamingNoLinkRefused: a Mock hello whose identity no link here
// has is closed at once — nothing would ever claim it — even when its target
// is a live link's QPN, and nothing is held: the channel stays on RDMA and
// the world ends at rest.
func TestMockHelloNamingNoLinkRefused(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	for _, h := range []hello{
		{purpose: helloMock, target: 0xdead, target0: 0xdead, dialer0: 0xdead},
		{purpose: helloMock, target: srv.QPN(), target0: 0xbeef, dialer0: cli.lk.qpn0},
	} {
		var dialed *tcpnet.Conn
		w.ctxs[0].tcp.Dial(1, 9000, func(conn *tcpnet.Conn, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			dialed = conn
			conn.Send(h.encode(), 0, nil)
		})
		w.eng.RunFor(sim.Millisecond)
		if dialed == nil || dialed.Open() {
			t.Fatalf("hello %+v was not refused at once", h)
		}
	}
	w.eng.Run()
	if cli.Mocked() || srv.Mocked() || w.ctxs[1].Stats.MockSwitches != 0 {
		t.Fatalf("mocked: cli=%v srv=%v, %d switches; want the channel left on RDMA", cli.Mocked(), srv.Mocked(), w.ctxs[1].Stats.MockSwitches)
	}
	w.checkAtRest(t, 1, 1)
}

// TestMockSwitchFollowsPeerForceMock: a peer's ForceMock switches this side
// even with MockEnabled off, which arms only the automatic fallback. The hello
// names a live link, so the link follows the moment it arrives, and the
// requests the dialer sent behind it are delivered exactly once, in order.
func TestMockSwitchFollowsPeerForceMock(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.MockEnabled = i == 0 })
	cli, srv := w.connect(t, 0, 1, 5000)
	var seen []uint64
	srv.OnMessage(func(m *Msg) {
		seen = append(seen, binary.LittleEndian.Uint64(m.Data))
		m.Reply(m.Retain(), 0)
	})
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	resps := 0
	for id := uint64(1); id <= 3; id++ {
		buf := make([]byte, 16)
		binary.LittleEndian.PutUint64(buf, id)
		if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err != nil || binary.LittleEndian.Uint64(m.Data) != id {
				t.Errorf("response to %d: %v", id, err)
			}
			resps++
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.Run()
	if !cli.Mocked() || !srv.Mocked() || srv.lk.fb == nil || cli.lk.fb == nil {
		t.Fatalf("mocked: cli=%v srv=%v; want both ends on the one fallback", cli.Mocked(), srv.Mocked())
	}
	if fmt.Sprint(seen) != "[1 2 3]" || resps != 3 {
		t.Fatalf("delivered %v with %d responses, want [1 2 3] exactly once, in order, all answered", seen, resps)
	}
	w.checkAtRest(t, 1, 1)
}

// TestMockOrphanTearsDown: a Mock dialer whose peer holds no link by the name
// its hello gives — the peer's exclusive end closed, which tells the dialer
// nothing — is refused on every attempt, spends its dial budget and tears
// down. The request it held hears an error exactly once, and nothing is left.
func TestMockOrphanTearsDown(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	srv.Close()
	calls := 0
	var cbErr error
	if err := cli.SendMsg(make([]byte, 16), 0, func(_ *Msg, err error) { calls, cbErr = calls+1, err }); err != nil {
		t.Fatal(err)
	}
	c := w.ctxs[0]
	w.eng.RunFor(c.recoverGrace() + c.mockGrace())
	if !cli.Closed() || calls != 1 || cbErr == nil {
		t.Fatalf("dialer closed=%v health=%v after %d callbacks (err %v), want closed and one error",
			cli.Closed(), cli.Health(), calls, cbErr)
	}
	w.checkAtRest(t, 0, 0)
}

// TestMockFindsLinkAfterHalfFinishedRedial: a Mock hello names its link by
// identity, as a redial does, not by the last QPN the dialer saw. With cold QP
// caches the first redial after a fault outlives the dialer's dial timeout
// while the listener accepts and adopts it, so the listener holds a QPN the
// dialer never learns. A dialer that switches to the Mock in that state must
// still reach its channel: the conn is attached at once, and the request
// stream rides it exactly once.
func TestMockFindsLinkAfterHalfFinishedRedial(t *testing.T) {
	w := newRecoverWorld(t, 2, func(_ int, cfg *Config) { cfg.FailbackInterval = 0 })
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 100*sim.Microsecond, 40*sim.Millisecond)
	w.eng.RunFor(sim.Millisecond)
	cli.lk.fail(ErrPeerDead)
	for i := 0; !(srv.lk.state == linkReady && srv.QPN() != cli.lk.peerQPN && cli.lk.dialing == nil); i++ {
		if i == 1000 || cli.lk.state != linkDegraded {
			t.Fatalf("no half-finished redial: dialer state=%d, listener state=%d qpn=%d, dialer names %d",
				cli.lk.state, srv.lk.state, srv.QPN(), cli.lk.peerQPN)
		}
		w.eng.RunFor(50 * sim.Microsecond)
	}
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(2 * sim.Millisecond)
	if !srv.Mocked() || srv.lk.fb == nil || cli.lk.fb == nil {
		t.Fatalf("listener mocked=%v attached=%v dialer attached=%v, want the conn attached at both ends",
			srv.Mocked(), srv.lk.fb != nil, cli.lk.fb != nil)
	}
	conn := cli.lk.fb
	w.eng.Run()
	if !cli.Mocked() || !srv.Mocked() || cli.lk.fb != conn {
		t.Fatalf("mocked: cli=%v srv=%v, same conn=%v; want both ends on the one fallback", cli.Mocked(), srv.Mocked(), cli.lk.fb == conn)
	}
	s.check(t)
	w.checkAtRest(t, 1, 1)
}

// TestKeepaliveDeathMidRendezvousNoLeak (satellite): when the peer dies
// for good in the middle of a large rendezvous transfer — and no
// fallback plane is configured — the teardown must return every window
// credit and memory-cache buffer; nothing may leak.
func TestKeepaliveDeathMidRendezvousNoLeak(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.MockEnabled = false // permanent fault with nowhere to go
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	srv.OnMessage(func(m *Msg) {}) // swallow; the transfer won't finish

	big := make([]byte, 64<<10) // rendezvous-sized
	var sendErr error
	var cbRan bool
	if err := cli.SendMsg(big, 0, func(m *Msg, err error) {
		cbRan = true
		sendErr = err
	}); err != nil {
		t.Fatal(err)
	}
	// Let the announce go out and the peer's pull begin, then kill the
	// server mid-flight.
	w.eng.RunFor(50 * sim.Microsecond)
	w.nics[1].Crash()
	w.ctxs[1].Close()
	w.eng.RunFor(800 * sim.Millisecond)

	if !cli.closed {
		t.Fatalf("client channel still open (health=%v) after permanent peer death", cli.Health())
	}
	if !cbRan || sendErr == nil {
		t.Fatal("pending send never failed back to the caller")
	}
	w.checkAtRest(t, 0, 0)
	if cli.Inflight() != 0 || cli.sendQ.Len() != 0 { // closed, so not a channel the ledger walks
		t.Errorf("torn-down channel still holds %d credits, %d queued", cli.Inflight(), cli.sendQ.Len())
	}
	if w.ctxs[0].Stats.ChannelsBroken == 0 {
		t.Error("broken-channel counter never moved")
	}
}

// TestNICRestartFanoutDeterministic: a NIC restart fails every link of the
// context, and each one draws its redial jitter from the context RNG — so
// the fan-out order decides every channel's recovery timeline. It must be
// the links' creation order, not a map walk: the same seed run repeatedly
// in one process yields identical per-channel degraded→recovered
// timestamps and an identical event count.
func TestNICRestartFanoutDeterministic(t *testing.T) {
	const chans = 8
	run := func() (timeline string, fired uint64) {
		// Eight simultaneous redials queue behind one another in the NIC's
		// command pipeline; give each dial room for the whole convoy.
		w := newRecoverWorld(t, 2, func(_ int, cfg *Config) { cfg.RecoverDialTimeout = 40 * sim.Millisecond })
		for k := 0; k < chans; k++ {
			k := k
			cli, srv := w.connect(t, 0, 1, 5000+k)
			echoServer(srv)
			cli.OnHealthChange(func(h HealthState) {
				timeline += fmt.Sprintf("ch%d %v@%v\n", k, h, w.eng.Now())
			})
		}
		w.eng.AfterBg(10*sim.Millisecond, func() { w.nics[0].Crash() })
		w.eng.AfterBg(20*sim.Millisecond, func() {
			w.nics[0].Restart()
			w.ctxs[0].OnNICRestart()
		})
		w.eng.RunFor(300 * sim.Millisecond)
		if got := w.ctxs[0].Stats.Recoveries; got != chans {
			t.Fatalf("%d of %d channels recovered — nothing to compare", got, chans)
		}
		return timeline, w.eng.Fired()
	}
	wantTL, wantFired := run()
	for i := 0; i < 3; i++ {
		if tl, fired := run(); tl != wantTL || fired != wantFired {
			t.Fatalf("run %d diverged: Fired=%d vs %d\n--- first\n%s--- this\n%s", i+2, fired, wantFired, wantTL, tl)
		}
	}
}

// TestKeepaliveStaleCompletionIgnored: a keepalive probe can still be in
// flight on the waiting side when the dialer's replacement lands. Adoption
// surrenders the old QP, whose flush completes the probe with an error —
// stale news that must not re-fail the freshly adopted transport.
func TestKeepaliveStaleCompletionIgnored(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			// The waiter probes late, so its probe is mid-retry when the
			// dialer — who noticed the outage first — comes back.
			cfg.KeepaliveInterval = 6 * sim.Millisecond
		}
	})
	// Warm both QP caches so the replacement dial skips QP creation.
	warm, warmSrv := w.connect(t, 0, 1, 5001)
	cli, srv := w.connect(t, 0, 1, 5000)
	warm.Close()
	warmSrv.Close()
	echoServer(srv)
	w.eng.RunFor(sim.Millisecond)

	w.recordIncidents()
	w.fab.SetHostLink(1, false)
	cli.SendMsg([]byte("lost"), 0, func(*Msg, error) {})
	w.eng.AfterBg(8500*sim.Microsecond, func() { w.fab.SetHostLink(1, true) })
	w.eng.RunFor(100 * sim.Millisecond)

	s1 := w.ctxs[1].Stats
	// Peer-initiated: the waiter degrades with its probe out and nothing of
	// its own failed first — no QP error, no exhausted retries, no keepalive
	// verdict, no path verdict — so only the dialer's redial can have done it.
	peerInitiated, probing := false, false
scan:
	for _, e := range telemetry.For(w.eng).Trace.Events() {
		switch {
		case e.Track == "xrdma.1" && e.Name == telemetry.CatKeepaliveProbe.String():
			probing = true
		case e.Track == "xrdma.1" && e.Name == telemetry.CatChannelDegraded.String():
			peerInitiated = probing
			break scan
		case e.Track == "rnic.1" && (e.Name == telemetry.CatQPError.String() || e.Name == telemetry.CatRetryExhausted.String()),
			e.Track == "xrdma.1" && (e.Name == telemetry.CatKeepaliveFail.String() || e.Name == telemetry.CatPathVerdict.String()):
			break scan
		}
	}
	if !peerInitiated || s1.KeepaliveProbes == 0 {
		t.Fatalf("scenario missed: peer-initiated=%v probes=%d — the waiter must be probing when the redial lands", peerInitiated, s1.KeepaliveProbes)
	}
	if s1.Degraded != 1 || s1.KeepaliveFails != 0 {
		t.Fatalf("waiter Degraded=%d KeepaliveFails=%d, want 1/0: a flushed probe from the surrendered QP re-failed the adopted one", s1.Degraded, s1.KeepaliveFails)
	}
	if cli.Health() != HealthHealthy || srv.Health() != HealthHealthy {
		t.Fatalf("ended cli=%v srv=%v, want healthy", cli.Health(), srv.Health())
	}
}
