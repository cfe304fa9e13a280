package xrdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// exposeGranted registers a size-byte window on the server context and
// grants it over srv's ctrl plane; returns the owner window and the
// client's received view, with the advertised geometry verified.
func exposeGranted(t *testing.T, w *testWorld, cli, srv *Channel, size int) (*Window, RemoteWindow) {
	t.Helper()
	var win *Window
	srv.ctx.ExposeWindow(size, func(wi *Window, err error) {
		if err != nil {
			t.Fatalf("expose: %v", err)
		}
		win = wi
	})
	var got RemoteWindow
	var seen bool
	cli.OnWindow(func(rw RemoteWindow) { got, seen = rw, true })
	w.eng.Run()
	if win == nil {
		t.Fatal("window registration never completed")
	}
	srv.GrantWindow(win)
	w.eng.Run()
	if !seen {
		t.Fatal("window grant never arrived")
	}
	if got.ID != win.ID || got.Addr != win.Base() || got.RKey != win.RKey() || got.Len != size {
		t.Fatalf("grant advertised %+v, window is id=%d base=%#x rkey=%d len=%d",
			got, win.ID, win.Base(), win.RKey(), size)
	}
	return win, got
}

func TestOneSidedReadRemote(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5300)
	win, rw := exposeGranted(t, w, cli, srv, 8192)
	pat := win.Bytes()
	for i := range pat {
		pat[i] = byte(i*31 + 7)
	}
	var got []byte
	cli.ReadRemote(rw, 128, 4096, func(b []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append([]byte(nil), b...)
	})
	w.eng.Run()
	if !bytes.Equal(got, pat[128:128+4096]) {
		t.Fatal("one-sided read returned corrupted data")
	}
	if cli.Counters.Reads != 1 || cli.Counters.ReadBytes != 4096 {
		t.Fatalf("read counters: %+v", cli.Counters)
	}
	if cli.Counters.RemoteAccessErrs != 0 {
		t.Fatalf("spurious access errors: %+v", cli.Counters)
	}
	// The whole point of the READ path: the responder's middleware never
	// woke up — no message reached the server channel.
	if srv.Counters.MsgsRecv != 0 {
		t.Fatalf("one-sided read woke the responder: %+v", srv.Counters)
	}
}

func TestOneSidedWriteRemoteImm(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5301)
	win, rw := exposeGranted(t, w, cli, srv, 4096)
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i ^ 0x5a)
	}
	var imm uint32
	var addr uint64
	var n int
	var fired bool
	srv.OnWriteImm(func(i uint32, a uint64, ln int) { imm, addr, n, fired = i, a, ln, true })
	var done bool
	cli.WriteRemote(rw, 256, data, 0xfeedface, func(err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		done = true
	})
	w.eng.Run()
	if !done || !fired {
		t.Fatalf("write done=%v wakeup=%v", done, fired)
	}
	if imm != 0xfeedface || n != len(data) || addr != rw.Addr+256 {
		t.Fatalf("imm delivery: imm=%#x addr=%#x n=%d (want imm=0xfeedface addr=%#x n=%d)",
			imm, addr, n, rw.Addr+256, len(data))
	}
	if !bytes.Equal(win.Bytes()[256:256+1024], data) {
		t.Fatal("write payload did not land in the window")
	}
	if cli.Counters.Writes != 1 || cli.Counters.WriteBytes != 1024 {
		t.Fatalf("write counters: %+v", cli.Counters)
	}
}

// TestOneSidedRevokedWindowRead proves revocation is enforced by the
// memory system: the owner deregisters without telling the peer, and the
// peer's next READ draws a remote-access NAK that surfaces as
// ErrRemoteAccess, is counted at both ends, and breaks the channel the
// way real hardware breaks the QP.
func TestOneSidedRevokedWindowRead(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5302)
	win, rw := exposeGranted(t, w, cli, srv, 4096)
	win.Revoke() // peer deliberately NOT told: the rkey itself must be dead

	var gotErr error
	cli.ReadRemote(rw, 0, 512, func(_ []byte, err error) { gotErr = err })
	w.eng.RunFor(50 * sim.Millisecond)

	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("want ErrRemoteAccess, got %v", gotErr)
	}
	if cli.Counters.RemoteAccessErrs != 1 {
		t.Fatalf("requester access-err counter: %+v", cli.Counters)
	}
	if w.nics[1].Counters.AccessErrors == 0 {
		t.Fatal("responder NIC never counted the access NAK")
	}
	if !cli.Closed() {
		t.Fatal("access NAK must break the channel like a hardware QP error")
	}
	if _, ok := w.ctxs[1].tel.Reg.Value("rnic.1.remote_access_errs"); !ok {
		t.Fatal("remote_access_errs gauge not registered")
	}
}

func TestOneSidedWindowRevokeFrame(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5303)
	win, _ := exposeGranted(t, w, cli, srv, 1024)
	var revoked uint64
	cli.OnWindowRevoke(func(id uint64) { revoked = id })
	srv.RevokeWindow(win)
	w.eng.Run()
	if revoked != win.ID {
		t.Fatalf("revoke frame carried id %d, want %d", revoked, win.ID)
	}
	if _, ok := cli.PeerWindow(win.ID); ok {
		t.Fatal("revoked window still advertised at the peer")
	}
	if !win.Revoked() {
		t.Fatal("RevokeWindow must also enforce locally")
	}
}

// TestOneSidedNeedsRDMAPath holds the one rule for one-sided verbs off the
// healthy path: the TCP fallback carries messages, nothing that pretends to be
// an RNIC. On a channel that is degraded, recovering or mocked ReadRemote and
// WriteRemote answer ErrNoPath synchronously — nothing reaches the peer, the
// channel stays up, messages (the caller's RPC fallback) still flow — and
// after a failback both work again on the re-adopted QP.
func TestOneSidedNeedsRDMAPath(t *testing.T) {
	// until steps the engine to the first instant cond holds.
	until := func(t *testing.T, w *testWorld, what string, cond func() bool) {
		t.Helper()
		for i := 0; !cond(); i++ {
			if i == 4000 {
				t.Fatalf("never reached: %s", what)
			}
			w.eng.RunFor(50 * sim.Microsecond)
		}
	}
	forceMock := func(t *testing.T, chs ...*Channel) {
		t.Helper()
		for _, ch := range chs {
			if err := ch.ForceMock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		served bool // the state has a healthy RDMA path: both verbs succeed
		reach  func(t *testing.T, w *testWorld, cli, srv *Channel)
	}{
		{"degraded, redial pending", false, func(t *testing.T, w *testWorld, cli, _ *Channel) {
			cli.fail(ErrPeerDead)
			if cli.Health() != HealthDegraded || cli.lk.dialing != nil {
				t.Fatalf("health=%v dialing=%v, want degraded behind its backoff", cli.Health(), cli.lk.dialing != nil)
			}
		}},
		{"recovering, dial in flight", false, func(t *testing.T, w *testWorld, cli, _ *Channel) {
			cli.fail(ErrPeerDead)
			until(t, w, "a redial in flight", func() bool { return cli.lk.dialing != nil })
			if cli.Health() != HealthRecovering {
				t.Fatalf("health=%v with a dial in flight, want recovering", cli.Health())
			}
		}},
		{"fallback, conn attached", false, func(t *testing.T, w *testWorld, cli, srv *Channel) {
			forceMock(t, cli, srv)
			until(t, w, "Mock conn attached at both ends", func() bool { return cli.lk.fb != nil && srv.lk.fb != nil })
		}},
		{"fallback, conn not yet attached", false, func(t *testing.T, w *testWorld, cli, srv *Channel) {
			forceMock(t, cli, srv)
			if !cli.Mocked() || cli.lk.fb != nil {
				t.Fatalf("mocked=%v conn=%v, want the fallback still dialing", cli.Mocked(), cli.lk.fb != nil)
			}
		}},
		{"healthy again after failback", true, func(t *testing.T, w *testWorld, cli, srv *Channel) {
			forceMock(t, cli, srv)
			until(t, w, "the failback probe's adoption", func() bool {
				return w.ctxs[0].Stats.Failbacks == 1 && cli.Health() == HealthHealthy && srv.Health() == HealthHealthy
			})
			if cli.Mocked() || srv.Mocked() {
				t.Fatal("still mocked after the failback")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newRecoverWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5304)
			echoServer(srv)
			win, rw := exposeGranted(t, w, cli, srv, 2048)
			pat := win.Bytes()
			for i := range pat {
				pat[i] = byte(i * 3)
			}
			want := append([]byte(nil), pat...)
			var imms []uint32
			srv.OnWriteImm(func(imm uint32, _ uint64, _ int) { imms = append(imms, imm) })
			tc.reach(t, w, cli, srv)

			var (
				read           []byte
				readErr, wrErr error
				readCBs, wrCBs int
				data           = []byte("needs a healthy RDMA path")
				posted         = w.ctxs[0].posted.Len()
				tcpRecvd       = w.ctxs[1].tcp.MsgsRecv
			)
			const readAt, writeAt = 64, 1024
			cli.ReadRemote(rw, readAt, 512, func(b []byte, err error) {
				read, readErr = append([]byte(nil), b...), err
				readCBs++
			})
			cli.WriteRemote(rw, writeAt, data, 42, func(err error) {
				wrErr = err
				wrCBs++
			})
			if !tc.served {
				if readCBs != 1 || wrCBs != 1 || !errors.Is(readErr, ErrNoPath) || !errors.Is(wrErr, ErrNoPath) {
					t.Fatalf("on return: read %d×%v, write %d×%v, want both refused with ErrNoPath at once", readCBs, readErr, wrCBs, wrErr)
				}
				// Nothing went on either wire for them: no WR posted, and an
				// attached Mock conn carried no frame.
				if w.ctxs[0].posted.Len() != posted {
					t.Fatal("a refused one-sided op posted a work request")
				}
				if cli.lk.fb != nil {
					w.eng.RunFor(sim.Millisecond)
					if got := w.ctxs[1].tcp.MsgsRecv; got != tcpRecvd {
						t.Fatalf("a refused one-sided op sent %d TCP messages", got-tcpRecvd)
					}
				}
			}
			// Messages are what the fallback carries (and what a recovery
			// replays): the RPC a caller falls back to completes.
			var echoed []byte
			if err := cli.SendMsg([]byte("rpc fallback"), 0, func(m *Msg, err error) {
				if err != nil {
					t.Fatalf("echo: %v", err)
				}
				echoed = m.Retain()
			}); err != nil {
				t.Fatal(err)
			}
			until(t, w, "the echo", func() bool { return echoed != nil })
			w.eng.RunFor(5 * sim.Millisecond)
			if string(echoed) != "rpc fallback" {
				t.Fatalf("echo returned %q", echoed)
			}
			if cli.Closed() || srv.Closed() {
				t.Fatal("the channel did not survive")
			}
			if readCBs != 1 || wrCBs != 1 {
				t.Fatalf("callbacks fired read=%d write=%d times, want once each", readCBs, wrCBs)
			}
			if cli.Counters.Reads != 1 || cli.Counters.Writes != 1 {
				t.Fatalf("attempts counted reads=%d writes=%d, want 1 and 1", cli.Counters.Reads, cli.Counters.Writes)
			}
			if tc.served {
				copy(want[writeAt:], data)
				if readErr != nil || wrErr != nil || !bytes.Equal(read, want[readAt:readAt+512]) {
					t.Fatalf("on the re-adopted QP: read err=%v (%d bytes), write err=%v", readErr, len(read), wrErr)
				}
				if len(imms) != 1 || imms[0] != 42 {
					t.Fatalf("OnWriteImm saw %v, want [42]", imms)
				}
				if cli.Counters.ReadBytes != 512 || cli.Counters.WriteBytes != int64(len(data)) {
					t.Fatalf("byte counters: %+v", cli.Counters)
				}
			} else {
				if len(imms) != 0 {
					t.Fatalf("OnWriteImm fired (%v) for a refused write", imms)
				}
				if cli.Counters.ReadBytes != 0 || cli.Counters.WriteBytes != 0 ||
					cli.Counters.RemoteAccessErrs != 0 || srv.Counters.RemoteAccessErrs != 0 {
					t.Fatalf("refused ops moved counters: cli=%+v srv=%+v", cli.Counters, srv.Counters)
				}
			}
			if !bytes.Equal(win.Bytes(), want) {
				t.Fatal("window bytes are not what the served ops (if any) left")
			}
		})
	}

	// A peer still running a release that emulated the verbs over the Mock conn
	// emits kinds this build retired. They are hostile input like any unknown
	// kind: flight-recorded, ignored — not parsed, not answered.
	t.Run("retired kind over the Mock conn", func(t *testing.T) {
		w := newRecoverWorld(t, 2, nil)
		cli, srv := w.connect(t, 0, 1, 5304)
		win, rw := exposeGranted(t, w, cli, srv, 2048)
		want := append([]byte(nil), win.Bytes()...)
		fired := false
		srv.OnWriteImm(func(uint32, uint64, int) { fired = true })
		forceMock(t, cli, srv)
		until(t, w, "Mock conn attached at both ends", func() bool { return cli.lk.fb != nil && srv.lk.fb != nil })
		w.eng.RunFor(sim.Millisecond)

		recvd := w.ctxs[0].tcp.MsgsRecv
		w.recordIncidents()
		pay := bytes.Repeat([]byte{0xEE}, 64)
		for _, k := range []msgKind{kindLargeResp + 1, kindWinRevoke + 1, kindWinRevoke + 2, kindWinRevoke + 3} { // were READ_DONE, READ_REQ, READ_RESP, WRITE_IMM
			h := wireHdr{Kind: k, MsgID: 77, Addr: rw.Addr, RKey: rw.RKey, Size: uint32(len(pay))}
			frame := make([]byte, h.wireBytes(), h.wireBytes()+len(pay))
			h.encode(frame)
			binary.LittleEndian.PutUint32(frame[50:], 9) // the old immediate
			srv.lk.ingest(append(frame, pay...), 0, true, nil)
		}
		w.eng.RunFor(5 * sim.Millisecond)
		if got := w.incidents(t, "xrdma.1", telemetry.CatIntegrity); !slices.Equal(got, []int64{integrityKind, integrityKind, integrityKind, integrityKind}) {
			t.Fatalf("integrity records %v, want the 4 retired-kind frames flight-recorded as unknown kinds", got)
		}
		if fired || !bytes.Equal(win.Bytes(), want) || srv.Counters.RemoteAccessErrs != 0 {
			t.Fatal("a retired WRITE_IMM frame was applied")
		}
		if got := w.ctxs[0].tcp.MsgsRecv; got != recvd {
			t.Fatalf("the peer answered a retired frame (%d messages over the Mock conn)", got-recvd)
		}
		if cli.Closed() || srv.Closed() || !srv.Mocked() {
			t.Fatal("the channel did not survive hostile input")
		}
	})
}

func TestOneSidedClosedChannel(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5305)
	_, rw := exposeGranted(t, w, cli, srv, 1024)
	cli.Close()
	var rerr, werr error
	cli.ReadRemote(rw, 0, 64, func(_ []byte, err error) { rerr = err })
	cli.WriteRemote(rw, 0, []byte("x"), 0, func(err error) { werr = err })
	if !errors.Is(rerr, ErrChannelClosed) || !errors.Is(werr, ErrChannelClosed) {
		t.Fatalf("closed channel: read=%v write=%v", rerr, werr)
	}
}

// TestQueuedReadSkipsRecycledQP: a READ fragment waits behind the §V-C
// outstanding limit while its channel closes, and the QP goes back to the
// cache and into a connection to another node. When the fragment's turn
// comes it completes flushed: posted, it would carry the first peer's rkey to
// the second, whose access NAK would break the fresh channel.
func TestQueuedReadSkipsRecycledQP(t *testing.T) {
	w := newWorld(t, 4, func(_ int, cfg *Config) { cfg.MaxOutstandingWRs = 1 })
	c := w.ctxs[0]
	hold, holdSrv := w.connect(t, 0, 3, 5310)
	_, holdWin := exposeGranted(t, w, hold, holdSrv, 64)
	cli, srv := w.connect(t, 0, 1, 5311)
	_, rw := exposeGranted(t, w, cli, srv, 64)
	if err := w.ctxs[2].Listen(5312); err != nil {
		t.Fatal(err)
	}

	// The limit's one slot goes to a READ that a dead peer never answers.
	w.nics[3].Crash()
	hold.ReadRemote(holdWin, 0, 64, func([]byte, error) {})
	var rerr error
	read := false
	cli.ReadRemote(rw, 0, 64, func(_ []byte, err error) { read, rerr = true, err })
	w.eng.RunFor(sim.Millisecond) // the landing buffers
	if c.flow.queue.Len() != 1 {
		t.Fatalf("%d fragments queued behind the limit, want 1", c.flow.queue.Len())
	}
	qp := cli.lk.qp
	cli.Close()
	var fresh *Channel
	c.Connect(2, 5312, func(ch *Channel, err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		fresh = ch
	})
	w.eng.RunFor(10 * sim.Millisecond) // well inside the dead peer's RC retry horizon
	if fresh == nil || fresh.lk.qp != qp || c.flow.queue.Len() != 1 {
		t.Fatalf("fresh channel %v on the recycled QP %v, %d fragments queued; want the closed channel's QP and the fragment still waiting",
			fresh != nil, fresh != nil && fresh.lk.qp == qp, c.flow.queue.Len())
	}
	w.eng.RunFor(sim.Second) // the dead peer's READ fails and frees the slot
	if !read || rerr == nil {
		t.Fatalf("the queued READ of the closed channel: done=%v err=%v, want an error", read, rerr)
	}
	if n := w.nics[2].Counters.AccessErrors; n != 0 || fresh.Closed() || fresh.Health() != HealthHealthy {
		t.Fatalf("the fresh channel met %d access errors (closed=%v, %v): the stale fragment reached its peer", n, fresh.Closed(), fresh.Health())
	}
}

// TestOneSidedMetricsExposition is the satellite check that the new
// gauges flow through every consumer for free: XRStat grows the
// READS/WRITES/RDBYTES/RAERRS columns and the Prometheus exposition
// picks the per-channel and NIC counters up without any new plumbing.
func TestOneSidedMetricsExposition(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5306)
	win, rw := exposeGranted(t, w, cli, srv, 1024)
	copy(win.Bytes(), bytes.Repeat([]byte{0xab}, 1024))
	cli.ReadRemote(rw, 0, 256, func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	})
	w.eng.Run()

	tbl := XRStat(w.ctxs[0])
	for _, col := range []string{"READS", "WRITES", "RDBYTES", "RAERRS"} {
		if !strings.Contains(tbl, col) {
			t.Fatalf("XRStat missing %s column:\n%s", col, tbl)
		}
	}
	if v := snapshot(w.eng)[fmt.Sprintf("xrdma.0.ch.%d.rdbytes", cli.QPN())]; v != 256 {
		t.Fatalf("rdbytes gauge = %d, want 256", v)
	}

	var b bytes.Buffer
	if err := w.ctxs[0].tel.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	for _, frag := range []string{"_reads", "_writes", "_rdbytes", "_raerrs", "remote_access_errs"} {
		if !strings.Contains(expo, frag) {
			t.Fatalf("prometheus exposition missing %q", frag)
		}
	}
}
