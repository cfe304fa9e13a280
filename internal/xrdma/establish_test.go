package xrdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/verbs"
)

// TestEstablishmentConformance drives one first-establishment outcome per
// row through both planes — an exclusive QP and a shared one (QPsPerPeer=1)
// — and holds each cell to the same contract: Connect's callback fires
// exactly once with the same error identity on either plane, the listener
// counts its refusal once, and both nodes end at rest (checkAtRest; a dial
// that never established leaves no QP in the cache either). The
// shared plane's link has exactly one rider, so it is also the degenerate
// case the rider model claims: per row, each end must see the same callbacks
// in the same order on both planes.
//
// Before link.establish / Context.accept (three dialers, three acceptors) every
// row but "ok" failed on both planes: no-listener, draining, both
// disjoint-version rows and wrong-port left the QP the CM had created on the
// dialer's NIC (5 refused dials: NumQPs 0 → 5); draining/shared returned a
// bare "mux dial … rejected: draining" that errors.Is(ErrDraining) did not
// match; close-mid-dial never called back on the shared plane and handed a
// live channel on a closed context to the exclusive caller; nic-restart-mid-
// dial went on to establish on the exclusive plane as if nothing had happened
// and, on the shared one, reported ErrNICRestart but let the abandoned dial
// reach the listener, which kept a half-open shared QP.
func TestEstablishmentConformance(t *testing.T) {
	const appPort, midDial = 5000, sim.Millisecond // midDial: resolved, the dialer's QP creation still queued
	rows := []struct {
		name    string
		port    int
		mutate  func(i int, cfg *Config)
		prepare func(t *testing.T, w *testWorld)
		want    error  // nil = established
		text    string // the REJ reason, where identity alone is ErrRejected
		counted func(s ContextStats) int64
	}{
		{name: "ok", port: appPort},
		{name: "no-listener", port: 5999, want: verbs.ErrRejected, text: "refused"},
		{name: "draining-listener", port: appPort, want: ErrDraining,
			prepare: func(t *testing.T, w *testWorld) {
				if err := w.ctxs[1].Drain(nil); err != nil {
					t.Fatal(err)
				}
				w.eng.Run()
			},
			counted: func(s ContextStats) int64 { return s.DrainRefusals }},
		{name: "disjoint-version", port: appPort, want: verbs.ErrRejected, text: "unsupported header version",
			mutate: func(i int, cfg *Config) {
				if i == 0 {
					cfg.ProtoVerMin, cfg.ProtoVerMax = 2, 2 // a v2-only build dials a v1 listener
				}
			},
			counted: func(s ContextStats) int64 { return s.VerMismatches }},
		{name: "disjoint-version-v2-only-listener", port: appPort, want: verbs.ErrRejected, text: "unsupported header version",
			mutate: func(i int, cfg *Config) {
				if i == 1 {
					cfg.ProtoVerMin, cfg.ProtoVerMax = 2, 2 // a legacy build dials a v2-only listener
				}
			},
			counted: func(s ContextStats) int64 { return s.VerMismatches }},
		{name: "purpose-not-served-on-port", port: 9100, want: verbs.ErrRejected, text: "not served on this port"},
		{name: "close-mid-dial", port: appPort, want: ErrChannelClosed,
			prepare: func(t *testing.T, w *testWorld) { w.eng.AfterBg(midDial, w.ctxs[0].Close) }},
		{name: "nic-restart-mid-dial", port: appPort, want: ErrNICRestart,
			prepare: func(t *testing.T, w *testWorld) {
				w.eng.AfterBg(midDial, func() {
					w.nics[0].Crash()
					w.nics[0].Restart()
					w.ctxs[0].OnNICRestart()
				})
			}},
	}
	traces := map[string]string{} // plane/row → the callbacks each end saw
	for _, shared := range []bool{false, true} {
		for _, row := range rows {
			plane := "exclusive"
			if shared {
				plane = "shared"
			}
			row := row
			t.Run(plane+"/"+row.name, func(t *testing.T) {
				var trace [2][]string
				closed := func(end int) func(error) {
					return func(err error) { trace[end] = append(trace[end], fmt.Sprintf("closed(broken=%v)", err != nil)) }
				}
				w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
					if shared {
						cfg.MockEnabled = false
						cfg.QPsPerPeer = 1
					}
					if row.mutate != nil {
						row.mutate(i, cfg)
					}
				})
				var srv *Channel
				w.ctxs[1].OnChannel(func(ch *Channel) {
					srv = ch
					trace[1] = append(trace[1], "accepted")
					ch.OnClose(closed(1))
				})
				if err := w.ctxs[1].Listen(appPort); err != nil {
					t.Fatal(err)
				}
				if row.prepare != nil {
					row.prepare(t, w)
				}
				calls := 0
				var cli *Channel
				var got error
				w.ctxs[0].Connect(fabric.NodeID(1), row.port, func(ch *Channel, err error) {
					calls++
					cli, got = ch, err
					class := "ok"
					for _, is := range []error{ErrDraining, ErrChannelClosed, ErrNICRestart, verbs.ErrRejected} {
						if errors.Is(err, is) {
							class = is.Error()
							break
						}
					}
					trace[0] = append(trace[0], "connected: "+class)
					if ch != nil {
						ch.OnClose(closed(0))
					}
				})
				w.eng.RunFor(100 * sim.Millisecond)

				if calls != 1 {
					t.Fatalf("Connect called back %d times, want exactly once", calls)
				}
				switch {
				case row.want == nil && (got != nil || cli == nil || srv == nil):
					t.Fatalf("establishment failed: err=%v cli=%v srv=%v", got, cli, srv)
				case row.want != nil && (cli != nil || !errors.Is(got, row.want) || !strings.Contains(got.Error(), row.text)):
					t.Fatalf("Connect = (%v, %v), want an error that is %v mentioning %q", cli, got, row.want, row.text)
				}
				if row.counted != nil {
					if n := row.counted(w.ctxs[1].Stats); n != 1 {
						t.Errorf("listener counted the refusal %d times, want once", n)
					}
				}
				if s := w.ctxs[0].Stats; s.ChannelsBroken != 0 && !shared {
					t.Errorf("exclusive dialer counts %d channels broken for a channel nobody saw", s.ChannelsBroken)
				}

				pool := 0
				if row.want == nil {
					cli.Close()
					srv.Close()
					w.eng.RunFor(10 * sim.Millisecond)
					if shared {
						pool = 1 // a shared QP outlives its last rider
					}
				}
				w.checkAtRest(t, pool, pool)
				for i, c := range w.ctxs {
					if row.want != nil && c.QPs.Len() != 0 {
						t.Errorf("node %d: %d QPs cached after a dial that never established", i, c.QPs.Len())
					}
				}
				traces[plane+"/"+row.name] = fmt.Sprintf("dialer %v listener %v", trace[0], trace[1])
			})
		}
	}
	for _, row := range rows {
		if one, excl := traces["shared/"+row.name], traces["exclusive/"+row.name]; one != excl || one == "" {
			t.Errorf("%s: a shared link's one rider saw\n\t%s\nthe exclusive link's rider saw\n\t%s", row.name, one, excl)
		}
	}
}

// TestDeadLinkDropsLateMockFrame: after a failback the passive side keeps
// draining its Mock conn until the dialer hangs up, so a frame can still be
// in the TCP pipe when the channel closes. The dead link must drop it —
// before the ingest guard it was decoded and delivered to the closed
// channel's handler.
func TestDeadLinkDropsLateMockFrame(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	delivered, afterClose := 0, 0
	srv.OnMessage(func(m *Msg) {
		delivered++
		if srv.Closed() {
			afterClose++
		}
	})
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(5 * sim.Millisecond)
	if !cli.Mocked() || !srv.Mocked() {
		t.Fatalf("mocked: cli=%v srv=%v, want both on the fallback", cli.Mocked(), srv.Mocked())
	}
	late := false
	srv.OnHealthChange(func(h HealthState) {
		if h != HealthHealthy || late {
			return
		}
		// The passive side has adopted the failback QP; the dialer has not
		// seen the REP yet and still sends over TCP.
		late = true
		if !cli.Mocked() {
			t.Fatal("dialer left the fallback before the passive side adopted")
		}
		buf := make([]byte, 16)
		binary.LittleEndian.PutUint64(buf, 7)
		if err := cli.SendMsg(buf, 0, nil); err != nil { // one-way
			t.Fatal(err)
		}
		w.eng.After(sim.Microsecond, srv.Close)
	})
	w.eng.RunFor(100 * sim.Millisecond)
	if !late || !srv.Closed() {
		t.Fatalf("scenario never ran: failback adopted=%v srv closed=%v", late, srv.Closed())
	}
	if afterClose != 0 {
		t.Fatalf("%d of %d messages delivered to the handler after Close", afterClose, delivered)
	}
}
