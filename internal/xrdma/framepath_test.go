package xrdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"testing"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// TestOneSidedWriteImmSharedQP: a WRITE+imm completion carries no wire
// header and its immediate cannot name a rider, so on a shared QP the sender
// refuses before posting (it used to report success while the peer dropped
// the completion as a bad header), the receiver never hands the completion
// to the parser, and READ — which wakes nobody — keeps working.
func TestOneSidedWriteImmSharedQP(t *testing.T) {
	w := newWorld(t, 2, muxKnobs(1))
	clis, srvs := openMuxed(t, w, 0, 1, 6100, 2)
	cli, srv := clis[0], srvs[0]
	win, rw := exposeGranted(t, w, cli, srv, 4096)
	pat := win.Bytes()
	for i := range pat {
		pat[i] = byte(i*7 + 1)
	}
	want := append([]byte(nil), pat...)

	fired := false
	for _, s := range srvs {
		s.OnWriteImm(func(uint32, uint64, int) { fired = true })
	}
	var done bool
	var werr error
	cli.WriteRemote(rw, 0, make([]byte, 512), 7, func(err error) { done, werr = true, err })
	w.eng.Run()
	if !done || werr == nil {
		t.Fatalf("WriteRemote on a muxed channel: done=%v err=%v fired=%v, want a refusal before posting", done, werr, fired)
	}
	if !errors.Is(werr, errWriteImmShared) {
		t.Fatalf("WriteRemote refused with %v, want errWriteImmShared", werr)
	}
	if fired || !bytes.Equal(win.Bytes(), want) {
		t.Fatal("a refused WriteRemote reached the peer")
	}

	// A peer that posts one anyway (a foreign build): the receive side
	// recycles the SRQ buffer and wakes nobody — no decode, no lost buffer.
	mx := sharedQPs(w.ctxs[0])[0]
	srqBefore, _, _, _ := poolHeld(w.ctxs[1], w.ctxs[1].srqPool)
	foreign := w.ctxs[0].newRec(recWrite, cli)
	foreign.lk, foreign.qp, foreign.done = mx, mx.qp, func(error) {}
	foreign.wr = rnic.SendWR{
		Op: rnic.OpWriteImm, Len: 512, Data: make([]byte, 512), RAddr: rw.Addr, RKey: rw.RKey, Imm: 9,
	}
	w.recordIncidents()
	w.ctxs[0].flow.post(foreign)
	w.eng.Run()
	if got := w.incidents(t, "xrdma.1", telemetry.CatIntegrity); !slices.Equal(got, []int64{integrityImmShared}) {
		t.Fatalf("integrity records %v, want one WRITE+imm on a shared QP and no decode error (%d): the completion must not reach the parser", got, integrityDecode)
	}
	if fired {
		t.Fatal("WRITE+imm on a shared QP woke a rider it cannot name")
	}
	if got, _, _, _ := poolHeld(w.ctxs[1], w.ctxs[1].srqPool); got != srqBefore || w.ctxs[1].srq.Len() != srqFill(w.ctxs[1]) {
		t.Fatalf("SRQ holds %d bytes (%d posted) after the WRITE+imm, want %d (%d)", got, w.ctxs[1].srq.Len(), srqBefore, srqFill(w.ctxs[1]))
	}

	var got []byte
	cli.ReadRemote(rw, 64, 512, func(b []byte, err error) {
		if err != nil {
			t.Fatalf("ReadRemote on a muxed channel: %v", err)
		}
		got = append([]byte(nil), b...)
	})
	w.eng.Run()
	if !bytes.Equal(got, win.Bytes()[64:64+512]) {
		t.Fatal("ReadRemote on a muxed channel returned wrong bytes")
	}
}

// TestMockedChannelStaysListed: a channel on the Mock fallback is still a
// channel of its context — listed, counted, swept by the request-timeout
// scan and closed by Context.Close. (It used to vanish with its QPN-table
// entry, the only thing those walks read.)
func TestMockedChannelStaysListed(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) {
		cfg.MockEnabled = true
		cfg.RequestTimeout = 5 * sim.Millisecond
		cfg.StatsInterval = sim.Millisecond
	})
	cli, srv := w.connect(t, 0, 1, 5400)
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	if err := srv.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(3 * sim.Millisecond)
	if !cli.Mocked() || !srv.Mocked() {
		t.Fatal("mock cutover failed")
	}
	for i, c := range w.ctxs {
		chs := c.Channels()
		if c.NumChannels() != 1 || len(chs) != 1 || !chs[0].Mocked() {
			t.Fatalf("node %d: NumChannels=%d Channels=%v, want its one mocked channel", i, c.NumChannels(), chs)
		}
		if v, _ := c.tel.Reg.Value(c.track + ".channels"); v != 1 {
			t.Fatalf("node %d: channels gauge = %d, want 1", i, v)
		}
	}

	srv.OnMessage(func(*Msg) {}) // never replies
	var reqErr error
	cli.SendMsg([]byte("over tcp"), 0, func(_ *Msg, err error) { reqErr = err })
	w.eng.RunFor(20 * sim.Millisecond)
	if !errors.Is(reqErr, ErrTimeout) {
		t.Fatalf("request over Mock ended with %v, want ErrTimeout from the context's scan", reqErr)
	}

	w.ctxs[0].Close()
	w.eng.RunFor(sim.Millisecond)
	if !cli.Closed() {
		t.Fatal("Context.Close left the mocked channel open")
	}
	if n := w.ctxs[0].NumChannels(); n != 0 {
		t.Fatalf("NumChannels=%d after Context.Close", n)
	}
}

// frameScript records what the applications on both ends of one channel
// pair see while frameSteps drives it through every frame family. Within a
// step the entries are sorted: which of two messages in flight together
// lands first is the transport's business (an RDMA rendezvous finishes
// after the inline message behind it, TCP delivers in order), what arrives
// is not.
type frameScript struct {
	t        *testing.T
	cli, srv *Channel
	step     []string
	log      []string
	pending  int
}

func (s *frameScript) note(format string, a ...any) {
	s.step = append(s.step, fmt.Sprintf(format, a...))
}

func (s *frameScript) request(id uint64, size int) {
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, id)
	for i := 8; i < size; i++ {
		buf[i] = byte(uint64(i) * (id + 3))
	}
	s.pending++
	if err := s.cli.SendMsg(buf, 0, func(m *Msg, err error) {
		s.pending--
		if err != nil {
			s.note("resp%d=%v", id, err)
			return
		}
		s.note("resp%d=%d/%08x", id, m.Len, crc32.ChecksumIEEE(m.Data))
	}); err != nil {
		s.t.Fatalf("SendMsg %d: %v", id, err)
	}
}

// frameSteps is the scripted workload; ids ≥ 100 are one-way.
var frameSteps = []struct {
	name  string
	issue func(s *frameScript, grant *Window)
}{
	{"inline", func(s *frameScript, _ *Window) { // the RDMA variants cut over under this burst
		for id := uint64(0); id < 8; id++ {
			s.request(id, 16)
		}
	}},
	{"large", func(s *frameScript, _ *Window) { s.request(10, 64<<10) }},
	{"mixed", func(s *frameScript, _ *Window) { // a large and a small message in flight together
		s.request(20, 64<<10)
		s.request(21, 16)
	}},
	{"oneway", func(s *frameScript, _ *Window) { // fenced by a request behind it in the window
		ow := make([]byte, 16)
		binary.LittleEndian.PutUint64(ow, 100)
		if err := s.cli.SendMsg(ow, 0, nil); err != nil {
			s.t.Fatal(err)
		}
		s.request(30, 16)
	}},
	{"ping", func(s *frameScript, _ *Window) {
		s.pending++
		s.cli.Ping(func(_, _ sim.Duration, err error) {
			s.pending--
			s.note("ping=%v", err)
		})
	}},
	{"onesided", func(s *frameScript, grant *Window) { // window grant, then a READ of it
		s.pending++
		s.cli.OnWindow(func(rw RemoteWindow) {
			s.note("window=%d", rw.Len)
			s.cli.ReadRemote(rw, 64, 512, func(b []byte, err error) {
				s.pending--
				s.note("read=%d/%08x/%v", len(b), crc32.ChecksumIEEE(b), err)
			})
		})
		s.srv.GrantWindow(grant)
	}},
}

// runFrameSteps drives every script through the steps in lockstep; cutover
// runs once, with step cutAt's operations in flight on every channel.
func runFrameSteps(t *testing.T, eng *sim.Engine, scripts []*frameScript, grant *Window, cutAt int, cutover func()) {
	t.Helper()
	for _, s := range scripts {
		s := s
		s.srv.OnMessage(func(m *Msg) {
			id := binary.LittleEndian.Uint64(m.Data)
			s.note("srv%d=%d/%08x", id, m.Len, crc32.ChecksumIEEE(m.Data))
			if id < 100 {
				m.Reply(m.Data[:8], 0)
			}
		})
	}
	for i, step := range frameSteps {
		for _, s := range scripts {
			step.issue(s, grant)
		}
		if i == cutAt {
			cutover()
		}
		eng.RunFor(150 * sim.Millisecond)
		for k, s := range scripts {
			if s.pending != 0 {
				t.Fatalf("step %s: channel %d has %d operations that never completed", step.name, k, s.pending)
			}
			sort.Strings(s.step)
			s.log = append(s.log, step.name+": "+strings.Join(s.step, " "))
			s.step = nil
		}
	}
}

// TestFramePathConformance is the classic-vs-mux differential, extended to
// the Mock fallback: the same scripted workload over an exclusive QP, over
// a shared QP with four riders, and over an exclusive link that starts on
// TCP, each with a cutover in the run (link failure → redial → adopt; on
// Mock the failback probe's adoption). Whatever carries the frames, every
// channel's applications must see the same thing, the QPN table must hold
// exactly the live links' current QPNs — also after the QP cache recycled
// numbers between links — and the world must end at rest (checkAtRest).
func TestFramePathConformance(t *testing.T) {
	var ref []string
	for _, kind := range []string{"exclusive", "shared", "mock"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			w := newRecoverWorld(t, 2, func(_ int, cfg *Config) {
				cfg.RecoverDialTimeout = 10 * sim.Millisecond
				cfg.FailbackInterval = 0 // the Mock variant's failback is scripted
				if kind == "shared" {
					cfg.MockEnabled = false
					cfg.QPsPerPeer = 1
				}
			})
			var cli, srv []*Channel
			if kind == "shared" {
				cli, srv = openMuxed(t, w, 0, 1, 6200, 4)
			} else {
				// A closed sibling leaves its QPs in both caches, so the
				// channel under test rides recycled QPNs from the start.
				wc, ws := w.connect(t, 0, 1, 5500)
				wc.Close()
				ws.Close()
				w.eng.RunFor(sim.Millisecond)
				c, s := w.connect(t, 0, 1, 5501)
				cli, srv = []*Channel{c}, []*Channel{s}
			}
			if kind == "mock" {
				cli[0].ForceMock()
				srv[0].ForceMock()
				w.eng.RunFor(3 * sim.Millisecond)
				if !cli[0].Mocked() || !srv[0].Mocked() {
					t.Fatal("mock cutover failed")
				}
			}
			var win *Window
			w.ctxs[1].ExposeWindow(4096, func(wi *Window, err error) { win = wi })
			w.eng.Run()
			for i, pat := 0, win.Bytes(); i < len(pat); i++ {
				pat[i] = byte(i*13 + 5)
			}

			scripts := make([]*frameScript, len(cli))
			for k := range cli {
				scripts[k] = &frameScript{t: t, cli: cli[k], srv: srv[k]}
			}
			// The RDMA links break under the first burst and replay it; the
			// Mock link carries every message step over TCP and fails back
			// under the ping, so the one-sided step — which needs an RDMA path
			// — runs on the re-adopted QP.
			cutAt, cutover := 0, func() { cli[0].lk.fail(ErrPeerDead) }
			if kind == "mock" {
				cutAt, cutover = len(frameSteps)-2, func() { cli[0].lk.dialReplacement(func(error) {}) } // a failback probe, now
			}
			runFrameSteps(t, w.eng, scripts, win, cutAt, cutover)

			if got := w.ctxs[0].Stats.Recoveries; got != 1 {
				t.Fatalf("Recoveries=%d, want the one scripted cutover", got)
			}
			for k, s := range scripts {
				if ref == nil {
					ref = s.log
				}
				if strings.Join(s.log, "\n") != strings.Join(ref, "\n") {
					t.Errorf("%s channel %d saw\n%s\nwant (first channel of the first variant)\n%s",
						kind, k, strings.Join(s.log, "\n"), strings.Join(ref, "\n"))
				}
				for _, ch := range []*Channel{s.cli, s.srv} {
					if ch.Inflight() != 0 || ch.Health() != HealthHealthy || ch.Mocked() {
						t.Errorf("%s channel %d ended inflight=%d health=%v mocked=%v", kind, k, ch.Inflight(), ch.Health(), ch.Mocked())
					}
				}
			}
			for _, c := range w.ctxs {
				checkStructure(t, c)
			}

			// One more channel off the QP cache, then everything closes.
			pool := 1
			if kind != "shared" {
				c, s := w.connect(t, 0, 1, 5502)
				for _, ctx := range w.ctxs {
					checkStructure(t, ctx)
				}
				cli, srv, pool = append(cli, c), append(srv, s), 0
			}
			win.Revoke()
			for k := range cli {
				cli[k].Close()
				srv[k].Close()
			}
			w.eng.RunFor(50 * sim.Millisecond)
			w.checkAtRest(t, pool, pool)
		})
	}
}
