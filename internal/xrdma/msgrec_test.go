package xrdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// TestQueuedSendOwnsPayload: "the caller is free to reuse its buffer the
// moment SendMsg returns" has to hold when the message cannot leave at once.
// With the window full the send waits in the queue; it used to wait there as a
// reference to the caller's slice and went out with whatever the caller had
// written into it since.
func TestQueuedSendOwnsPayload(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.WindowDepth = 4 })
	cli, srv := w.connect(t, 0, 1, 5000)
	var got [][]byte
	srv.OnMessage(func(m *Msg) { got = append(got, m.Retain()) })
	for i := 0; i < 4; i++ { // nothing is acked before the engine runs: the window fills
		if err := cli.SendMsg([]byte{byte(i)}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte("original-bytes")
	if err := cli.SendMsg(buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	if cli.Counters.WindowStalls != 1 {
		t.Fatalf("WindowStalls=%d: the fifth send did not queue behind a full window", cli.Counters.WindowStalls)
	}
	copy(buf, "clobbered!!!!!")
	w.eng.Run()
	if len(got) != 5 || string(got[4]) != "original-bytes" {
		t.Fatalf("peer saw %q for the queued send, want the bytes SendMsg was given", got[len(got)-1])
	}
}

// TestRetryPayloadOwned: an outstanding request's record holds its own copy of
// the payload, so the caller may scribble on its buffer the moment SendMsg
// returns — here when the request leaves at once, where
// TestQueuedSendOwnsPayload holds it for a send that waits in the queue — and
// the echo still carries the original bytes.
func TestRetryPayloadOwned(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5606)
	echoServer(srv)
	buf := []byte("original-bytes")
	var echo []byte
	if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {
		if err == nil {
			echo = m.Retain()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(cli.pending) != 1 {
		t.Fatalf("pending=%d, want 1", len(cli.pending))
	}
	for _, rec := range cli.pending {
		if len(rec.payload()) == 0 || &rec.payload()[0] == &buf[0] {
			t.Fatal("the request's record aliases the caller's buffer")
		}
		copy(buf, "clobbered!!!!!")
		if string(rec.payload()) != "original-bytes" {
			t.Fatalf("record payload changed with the caller's buffer: %q", rec.payload())
		}
	}
	w.eng.Run()
	if string(echo) != "original-bytes" {
		t.Fatalf("echo carried %q, want the bytes SendMsg was given", echo)
	}
}

// recyclePattern is the payload of message id in one direction: its id, then
// bytes no other id, length or direction produces.
func recyclePattern(id uint64, resp bool) []byte {
	n := 16 + int(id*7%200)
	salt := byte(17)
	if resp {
		n, salt = 12+int(id%50), 29
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, id)
	for j := 8; j < n; j++ {
		b[j] = byte(id*131) + byte(j)*salt
	}
	return b
}

// TestRecordRecycleSafety is the property the per-message record lives by:
// whatever recycles — the record, its frame buffer, its work request — no
// message is lost, duplicated or delivered with another's bytes, and the world
// ends at rest (checkAtRest: every record back on the free list, none leaked;
// none freed twice: drop panics on that). Each plane runs ten thousand
// requests with unique payloads at more than window depth, a third of the
// replies deferred past the handler, over a link that is failed from either
// end every fifteen hundred completions (every third time, on the classic
// plane, by a reboot of the peer), so that full windows replay through
// requeueUnacked — onto a record of their own where the RNIC still owns the
// old one (rehome).
func TestRecordRecycleSafety(t *testing.T) {
	const (
		perChan = 40 // outstanding per channel: the window (32) and a queue behind it
		total   = 10000
	)
	planes := []struct {
		name   string
		riders int
		reboot bool
		world  func(t *testing.T) *testWorld
		open   func(t *testing.T, w *testWorld) (cli, srv []*Channel)
		check  func(t *testing.T, w *testWorld)
	}{
		{name: "classic", riders: 1, reboot: true,
			world: func(t *testing.T) *testWorld {
				return newRecoverWorld(t, 2, func(_ int, cfg *Config) { cfg.RecoverDialTimeout = 10 * sim.Millisecond })
			},
			open: func(t *testing.T, w *testWorld) ([]*Channel, []*Channel) {
				// The requester is the side that does not redial (the higher
				// node id): recoveries reach it peer-initiated, with its
				// requests — response waiters and all — still posted.
				cli, srv := w.connect(t, 1, 0, 5000)
				return []*Channel{cli}, []*Channel{srv}
			},
			check: func(t *testing.T, w *testWorld) {
				if s := w.ctxs[0].Stats; s.Recoveries < 3 || s.MockSwitches != 0 {
					t.Errorf("Recoveries=%d MockSwitches=%d: the link did not flap and recover over RDMA", s.Recoveries, s.MockSwitches)
				}
			}},
		{name: "shared-drr", riders: 4,
			world: func(t *testing.T) *testWorld {
				return newRecoverWorld(t, 2, func(_ int, cfg *Config) {
					cfg.RecoverDialTimeout = 10 * sim.Millisecond
					cfg.MockEnabled = false
					cfg.QPsPerPeer = 1
					cfg.Tenants = []TenantConfig{{Name: "gold", Weight: 3}, {Name: "lead", Weight: 1}}
				})
			},
			open: func(t *testing.T, w *testWorld) (cli, srv []*Channel) {
				w.ctxs[1].OnChannel(func(ch *Channel) { srv = append(srv, ch) })
				if err := w.ctxs[1].Listen(6002); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 4; k++ {
					ch, err := w.ctxs[0].ChannelTo(fabric.NodeID(1), 6002, WithTenant([]string{"gold", "lead"}[k%2]))
					if err != nil {
						t.Fatal(err)
					}
					cli = append(cli, ch)
				}
				return cli, nil // the server ends appear as the first sends attach
			},
			check: func(t *testing.T, w *testWorld) {
				if s := w.ctxs[0].Stats; s.Recoveries < 3 {
					t.Errorf("Recoveries=%d: the shared QP did not flap and recover", s.Recoveries)
				}
				var queued int64
				for _, ten := range w.ctxs[0].Tenants() {
					queued += ten.DRRQueued
				}
				if queued == 0 {
					t.Error("no frame ever waited behind the DRR arbiter")
				}
			}},
		{name: "mock-fallback", riders: 1,
			world: func(t *testing.T) *testWorld {
				return newWorld(t, 2, func(_ int, cfg *Config) { cfg.MockEnabled = true })
			},
			open: func(t *testing.T, w *testWorld) ([]*Channel, []*Channel) {
				cli, srv := w.connect(t, 0, 1, 5000)
				return []*Channel{cli}, []*Channel{srv}
			},
			check: func(t *testing.T, w *testWorld) {
				if s := w.ctxs[0].Stats; s.MockSwitches != 1 {
					t.Errorf("MockSwitches=%d, want the one cutover", s.MockSwitches)
				}
			}},
	}
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			w := p.world(t)
			cli, _ := p.open(t, w)
			recvd, resps := map[uint64]int{}, map[uint64]int{}
			serve := func(m *Msg) {
				id := binary.LittleEndian.Uint64(m.Data)
				if !bytes.Equal(m.Data, recyclePattern(id, false)) {
					t.Errorf("request %#x arrived with foreign bytes", id)
				}
				recvd[id]++
				if id%3 == 0 { // the handler returns first; the message is replied to later
					// m.Data is the posted receive buffer, the RNIC's again by
					// then: what outlives the handler is what Retain copied.
					kept := m.Retain()
					w.eng.After(15*sim.Microsecond, func() {
						if !bytes.Equal(kept, recyclePattern(id, false)) {
							t.Errorf("request %#x: the retained payload changed after the handler", id)
						}
						m.Reply(recyclePattern(id, true), 0)
					})
				} else {
					m.Reply(recyclePattern(id, true), 0)
				}
			}
			for _, c := range w.ctxs {
				for _, ch := range c.Channels() {
					ch.OnMessage(serve)
				}
				c.OnChannel(func(ch *Channel) { ch.OnMessage(serve) })
			}
			done, faults := 0, 0
			issued := make([]uint64, len(cli))
			var send func(k int)
			send = func(k int) {
				if int(issued[k]) == total/len(cli) {
					return
				}
				id := uint64(k)<<32 | issued[k]
				issued[k]++
				if err := cli[k].SendMsg(recyclePattern(id, false), 0, func(m *Msg, err error) {
					if err != nil {
						t.Fatalf("request %#x failed: %v", id, err)
					}
					if !bytes.Equal(m.Data, recyclePattern(id, true)) {
						t.Errorf("response %#x arrived with foreign bytes", id)
					}
					resps[id]++
					if done++; done%1500 == 0 {
						// Fail the link mid-flight, from alternating ends — and,
						// where the plane survives it, by rebooting the redialing
						// node under the requester's unacked work requests.
						if faults++; p.reboot && faults%3 == 0 {
							w.nics[0].Crash()
							w.eng.AfterBg(sim.Millisecond, func() {
								w.nics[0].Restart()
								w.ctxs[0].OnNICRestart()
							})
						} else {
							w.ctxs[faults%2].Channels()[0].fail(fmt.Errorf("injected fault %d", faults))
						}
					}
					send(k)
				}); err != nil {
					t.Fatalf("SendMsg %#x: %v", id, err)
				}
			}
			for k := range cli {
				for i := 0; i < perChan; i++ {
					send(k)
				}
			}
			// To quiescence, and off the keepalive grid: a probe posted on the
			// very last tick would still be in flight.
			w.eng.RunFor(2*sim.Second + 500*sim.Microsecond)

			if done != total || len(resps) != total || len(recvd) != total {
				t.Fatalf("%d of %d requests completed (%d distinct responses, %d distinct deliveries)", done, total, len(resps), len(recvd))
			}
			for id, n := range recvd {
				if n != 1 || resps[id] != 1 {
					t.Fatalf("request %#x: delivered %d times, answered %d times", id, n, resps[id])
				}
			}
			p.check(t, w)
			w.checkAtRest(t, 1, 1) // the channels stay open on their one link
			for i, c := range w.ctxs {
				if n := c.posted.Len(); n != 0 { // off the grid, not even a probe: the ledger allows one
					t.Errorf("node %d: %d records still posted", i, n)
				}
			}
		})
	}
}

// TestRecordsOutliveATick: message records go back to the collector on the
// memory cache's idle horizon (memShrinkIdle), not on every housekeeping tick.
// Bursts of rendezvous requests a few ticks apart run on the records the
// second burst made (the first grows the memory cache, so fewer of its
// stagings overlap): none is made again and no more are live. With keepalives
// off nothing runs at rest, and two horizons of it give every record back.
func TestRecordsOutliveATick(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.KeepaliveInterval = 0 })
	cli, srv := w.connect(t, 0, 1, 5000)
	echoServer(srv)
	tick := DefaultConfig().StatsInterval
	gap := 3 * tick
	if gap >= memShrinkIdle {
		t.Fatalf("a gap of %v does not fit the %v horizon", gap, memShrinkIdle)
	}
	made := make([]map[*msgRec]bool, len(w.ctxs))
	live := make([]int, len(w.ctxs))
	for burst := 0; burst < 6; burst++ {
		answered := 0
		for i := 0; i < 16; i++ {
			if err := cli.SendMsg(nil, 64<<10, func(_ *Msg, err error) {
				if err == nil {
					answered++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		w.eng.Run()
		if answered != 16 {
			t.Fatalf("burst %d: %d of 16 answered", burst, answered)
		}
		for i, c := range w.ctxs {
			switch {
			case burst == 0:
			case burst == 1:
				made[i], live[i] = map[*msgRec]bool{}, c.recs.Live()
				for _, r := range c.recs.Items() {
					made[i][r] = true
				}
			case c.recs.Live() > live[i]:
				t.Errorf("burst %d: node %d holds %d records live, %d after the second burst", burst, i, c.recs.Live(), live[i])
			default:
				for _, r := range c.recs.Items() {
					if !made[i][r] {
						t.Fatalf("burst %d, %v after the last: node %d made a record again", burst, gap, i)
					}
				}
			}
		}
		w.eng.RunFor(gap)
	}
	w.eng.RunFor(2*memShrinkIdle + tick)
	for i, c := range w.ctxs {
		if c.recs.Free() != 0 || c.recs.Live() != 0 {
			t.Errorf("node %d at rest for two horizons: %d records free of %d live, want none", i, c.recs.Free(), c.recs.Live())
		}
	}
}
