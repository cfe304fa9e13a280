package xrdma

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xrdma/internal/sim"
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

// TestOneSidedMockEmulation drives the same window API over the TCP
// fallback: reads and writes keep working (degraded), and a bounds
// violation surfaces as ErrRemoteAccess counted at both ends instead of
// a silent drop.
func TestOneSidedMockEmulation(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.MockEnabled = true })
	cli, srv := w.connect(t, 0, 1, 5304)
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	if err := srv.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * sim.Millisecond)
	if !cli.Mocked() || !srv.Mocked() {
		t.Fatal("mock cutover failed")
	}
	win, rw := exposeGranted(t, w, cli, srv, 2048)
	pat := win.Bytes()
	for i := range pat {
		pat[i] = byte(i * 3)
	}

	var got []byte
	cli.ReadRemote(rw, 64, 512, func(b []byte, err error) {
		if err != nil {
			t.Fatalf("mock read: %v", err)
		}
		got = append([]byte(nil), b...)
	})
	w.eng.Run()
	if !bytes.Equal(got, pat[64:64+512]) {
		t.Fatal("mock-emulated read corrupted")
	}
	if cli.Counters.Reads != 1 || cli.Counters.ReadBytes != 512 {
		t.Fatalf("mock read counters: %+v", cli.Counters)
	}

	var imm uint32
	var fired bool
	srv.OnWriteImm(func(i uint32, _ uint64, _ int) { imm, fired = i, true })
	data := []byte("degraded but correct")
	cli.WriteRemote(rw, 0, data, 42, func(err error) {
		if err != nil {
			t.Fatalf("mock write: %v", err)
		}
	})
	w.eng.Run()
	if !fired || imm != 42 {
		t.Fatalf("mock write wakeup: fired=%v imm=%d", fired, imm)
	}
	if !bytes.Equal(win.Bytes()[:len(data)], data) {
		t.Fatal("mock write payload did not land")
	}

	// Out-of-bounds read: the responder bounds-checks against its exposed
	// windows and answers with a flagged failure, never a silent drop.
	var gotErr error
	cli.ReadRemote(rw, uint64(rw.Len), 64, func(_ []byte, err error) { gotErr = err })
	w.eng.Run()
	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("mock violation: want ErrRemoteAccess, got %v", gotErr)
	}
	if cli.Counters.RemoteAccessErrs != 1 || srv.Counters.RemoteAccessErrs != 1 {
		t.Fatalf("violation counters: cli=%+v srv=%+v", cli.Counters, srv.Counters)
	}
	// Mock mode is the degraded plane: the violation must NOT tear the
	// channel down (there is no QP to break).
	if cli.Closed() || srv.Closed() {
		t.Fatal("mock violation must not close the channel")
	}
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
