package xrdma

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// snapshot evaluates the engine's registry the way every exporter does.
func snapshot(eng *sim.Engine) map[string]int64 {
	out := map[string]int64{}
	for _, e := range telemetry.For(eng).Reg.Snapshot() {
		out[e.Name] = e.Value
	}
	return out
}

// rowKeys lists the per-channel rows under one track ("xrdma.0") as
// "ch.<qpn>" / "mch.<cid>", sorted.
func rowKeys(snap map[string]int64, track string) []string {
	var keys []string
	for name := range snap {
		rest, ours := strings.CutPrefix(name, track+".")
		key, isRow := strings.CutSuffix(rest, ".peer")
		if ours && isRow && (strings.HasPrefix(key, "ch.") || strings.HasPrefix(key, "mch.")) {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// wantRows asserts the exact set of per-channel rows node's context shows.
func wantRows(t *testing.T, when string, w *testWorld, node int, want ...string) {
	t.Helper()
	got := rowKeys(snapshot(w.eng), w.ctxs[node].track)
	if !slices.Equal(got, want) {
		t.Errorf("%s: node %d rows %v, want %v", when, node, got, want)
	}
}

func chRow(ch *Channel) string { return fmt.Sprintf("ch.%d", ch.QPN()) }

// TestChannelRowsFollowTheChannel: nothing registers or unregisters a
// channel's XR-Stat row — the registry collector decides who has one when the
// snapshot is taken (Channel.hasRow) — so every lifecycle event has to leave
// the right rows behind without any bookkeeping of its own.
func TestChannelRowsFollowTheChannel(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"establish, close", func(t *testing.T) {
			w := newWorld(t, 2, nil)
			wantRows(t, "before any connect", w, 0)
			cli, srv := w.connect(t, 0, 1, 5000)
			wantRows(t, "established", w, 0, chRow(cli))
			wantRows(t, "established", w, 1, chRow(srv))
			cli.Close()
			wantRows(t, "client closed", w, 0)
			wantRows(t, "client closed", w, 1, chRow(srv))
			srv.Close()
			wantRows(t, "both closed", w, 1)
		}},
		{"muxed: a descriptor has no row until it attaches", func(t *testing.T) {
			w := newWorld(t, 2, muxKnobs(1))
			w.ctxs[1].OnChannel(func(*Channel) {})
			if err := w.ctxs[1].Listen(6000); err != nil {
				t.Fatal(err)
			}
			ch, err := w.ctxs[0].ChannelTo(1, 6000)
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, "lazy descriptor", w, 0)
			ch.SendMsg(nil, 8, nil)
			wantRows(t, "attach in flight", w, 0)
			w.eng.Run()
			wantRows(t, "attached", w, 0, fmt.Sprintf("mch.%d", ch.cid))
			if got := rowKeys(snapshot(w.eng), "xrdma.1"); len(got) != 1 || !strings.HasPrefix(got[0], "mch.") {
				t.Errorf("accepting side rows %v, want its one muxed channel", got)
			}
			ch.Close()
			w.eng.Run()
			wantRows(t, "closed", w, 0)
			wantRows(t, "peer heard CHAN_CLOSE", w, 1)
		}},
		{"ForceMock on a muxed channel is refused and its shared link keeps its rows", func(t *testing.T) {
			w := newWorld(t, 2, muxKnobs(1))
			cli, srv := openMuxed(t, w, 0, 1, 6000, 2)
			err := cli[0].ForceMock()
			if err == nil || !strings.Contains(err.Error(), "Mock is exclusive-only") {
				t.Fatalf("ForceMock on a muxed channel: %v, want the decided policy by name", err)
			}
			if l := cli[0].lk; l.state != linkReady || cli[0].Mocked() || cli[1].Mocked() || cli[1].Health() != HealthHealthy {
				t.Fatalf("the refusal still touched the shared link: state %d, sibling %v", l.state, cli[1].Health())
			}
			wantRows(t, "after the refusal", w, 0, fmt.Sprintf("mch.%d", cli[0].cid), fmt.Sprintf("mch.%d", cli[1].cid))
			echoServer(srv[1])
			ok := false
			cli[1].SendMsg([]byte("still RDMA"), 0, func(_ *Msg, err error) { ok = err == nil })
			w.eng.Run()
			if !ok {
				t.Fatal("the sibling rider lost its path")
			}
		}},
		{"ForceMock on a bare descriptor is refused, not dereferenced", func(t *testing.T) {
			w := newWorld(t, 2, muxKnobs(1))
			ch, err := w.ctxs[0].ChannelTo(1, 6000)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.ForceMock(); err == nil || !strings.Contains(err.Error(), "Mock is exclusive-only") {
				t.Fatalf("ForceMock on a lazy descriptor: %v, want the decided policy by name", err)
			}
			wantRows(t, "lazy descriptor", w, 0)
		}},
		{"recovery adoption moves the row to the new QPN", func(t *testing.T) {
			w := newRecoverWorld(t, 2, func(_ int, cfg *Config) { cfg.RecoverDialTimeout = 20 * sim.Millisecond })
			cli, srv := w.connect(t, 0, 1, 5000)
			old := [2]string{chRow(cli), chRow(srv)}
			cli.fail(ErrPeerDead)
			// The broken QP stays installed — its QPN is the link's identity —
			// until a replacement is adopted.
			wantRows(t, "degraded", w, 0, old[0])
			w.eng.RunFor(100 * sim.Millisecond)
			if cli.Health() != HealthHealthy || srv.Health() != HealthHealthy || chRow(cli) == old[0] || chRow(srv) == old[1] {
				t.Fatalf("no adoption: cli %v on %s, srv %v on %s", cli.Health(), chRow(cli), srv.Health(), chRow(srv))
			}
			wantRows(t, "adopted", w, 0, chRow(cli))
			wantRows(t, "adopted", w, 1, chRow(srv))
		}},
		{"Mock switch drops the row, failback returns it under the QPN it lands on", func(t *testing.T) {
			w := newRecoverWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
			w.eng.AfterBg(250*sim.Millisecond, func() {
				w.nics[1].Restart()
				w.ctxs[1].OnNICRestart()
			})
			w.eng.RunFor(240 * sim.Millisecond)
			if !cli.Mocked() || !srv.Mocked() {
				t.Fatalf("mocked: cli=%v srv=%v, want both on the fallback", cli.Mocked(), srv.Mocked())
			}
			wantRows(t, "on the fallback", w, 0)
			wantRows(t, "on the fallback", w, 1)
			w.eng.RunFor(560 * sim.Millisecond)
			if cli.Mocked() || srv.Mocked() {
				t.Fatalf("no failback: cli mocked=%v, srv mocked=%v", cli.Mocked(), srv.Mocked())
			}
			wantRows(t, "failed back", w, 0, chRow(cli))
			wantRows(t, "failed back", w, 1, chRow(srv))
		}},
		{"a QPN recycled through the QP cache names only its new owner", func(t *testing.T) {
			w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.MockEnabled = true })
			a, asrv := w.connect(t, 0, 1, 5000)
			a.SendMsg(nil, 8, nil)
			w.eng.Run()
			qpn := a.QPN()
			// a's link gives its QP back to the cache and holds none.
			if err := a.ForceMock(); err != nil {
				t.Fatal(err)
			}
			if err := asrv.ForceMock(); err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(3 * sim.Millisecond)
			var b *Channel
			w.ctxs[0].Connect(1, 5000, func(ch *Channel, err error) { b = ch })
			w.eng.RunFor(3 * sim.Millisecond)
			if b == nil || b.QPN() != qpn || !a.Mocked() || a.lk.qp != nil {
				t.Fatalf("setup: want b on a's recycled qpn=%d with a still mocked and holding no QP", qpn)
			}
			wantRows(t, "recycled", w, 0, chRow(b))
			if sent := snapshot(w.eng)[fmt.Sprintf("xrdma.0.ch.%d.sent", qpn)]; sent != b.Counters.MsgsSent || sent == a.Counters.MsgsSent {
				t.Errorf("row ch.%d reads sent=%d: the new owner sent %d, the mocked one %d", qpn, sent, b.Counters.MsgsSent, a.Counters.MsgsSent)
			}
		}},
		{"Shutdown", func(t *testing.T) {
			w := newWorld(t, 2, nil)
			cli, _ := w.connect(t, 0, 1, 5000)
			w.ctxs[1].Shutdown()
			wantRows(t, "shut down", w, 1)
			wantRows(t, "peer shut down", w, 0, chRow(cli))
		}},
		{"restart on the same engine, rehydrate", func(t *testing.T) {
			w := newRecoverWorld(t, 2, func(_ int, cfg *Config) { cfg.DrainDeadline = 4 * sim.Millisecond })
			cli, srv := w.connect(t, 0, 1, 5000)
			old := chRow(srv)
			var rehydrated *Channel
			if err := w.ctxs[1].Drain(func(blob []byte) {
				ctx := restartCtx(w, 1, nil)
				ctx.OnChannel(func(ch *Channel) { rehydrated = ch })
				if err := ctx.Rehydrate(blob); err != nil {
					t.Fatal(err)
				}
				// Established, listed, but its link has no QP yet.
				if len(ctx.Channels()) != 1 {
					t.Fatalf("rehydrated %d channels, want 1", len(ctx.Channels()))
				}
				wantRows(t, "rehydrated, before the redial", w, 1)
			}); err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(200 * sim.Millisecond)
			if rehydrated == nil || rehydrated.Health() != HealthHealthy || cli.Health() != HealthHealthy {
				t.Fatal("the rehydrated channel never re-established")
			}
			// Only the new instance's rows: the dead one is unreachable.
			wantRows(t, "re-established", w, 1, chRow(rehydrated))
			if chRow(rehydrated) == old {
				t.Fatalf("the replacement reused %s: the test cannot tell the instances apart", old)
			}
			wantRows(t, "re-established", w, 0, chRow(cli))
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
