package xrdma

import (
	"testing"
)

// TestSteadyStateAllocs pins the allocation cost of the warmed message path.
// What is left per 64 B round trip is the two delivered *Msg (the application
// may keep one past its handler, so it is not pooled) — an echo that Retains
// the request included, since a small payload is kept in its Msg; a 64 B READ
// allocates nothing. The poll loop, the window, the frame, the work request, every
// completion and — since the RNIC lands receives in the posted buffer and READs
// in the destination block — every payload byte are allocation-free, idle
// polls, the event-mode wake and the idle client's standalone ack included.
// The ceilings are what the code reaches: raising one is a regression to
// explain.
func TestSteadyStateAllocs(t *testing.T) {
	const size = 64
	rtt := func(w *testWorld, cli *Channel, data []byte, drain bool) func() {
		var done bool
		onResp := func(_ *Msg, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		}
		return func() {
			done = false
			if err := cli.SendMsg(data, size, onResp); err != nil {
				t.Fatal(err)
			}
			for !done && w.eng.Step() {
			}
			if drain {
				w.eng.Run() // the 64 idle polls, then event mode
			}
		}
	}
	sizeEcho := func(ch *Channel) { ch.OnMessage(func(m *Msg) { m.Reply(nil, m.Len) }) }

	cases := []struct {
		name    string
		ceiling float64
		build   func() func()
	}{
		{"classic_rtt", 2, func() func() {
			w := newWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			sizeEcho(srv)
			return rtt(w, cli, nil, false)
		}},
		{"classic_rtt_drain", 2, func() func() {
			w := newWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			sizeEcho(srv)
			return rtt(w, cli, nil, true)
		}},
		{"classic_echo_retain", 2, func() func() {
			w := newWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			srv.OnMessage(func(m *Msg) { m.Reply(m.Retain(), 0) })
			return rtt(w, cli, make([]byte, size), false)
		}},
		{"mux_rtt", 2, func() func() {
			w := newWorld(t, 2, muxKnobs(2))
			clis, srvs := openMuxed(t, w, 0, 1, 5000, 1)
			sizeEcho(srvs[0])
			return rtt(w, clis[0], nil, false)
		}},
		{"onesided_read", 0, func() func() {
			w := newWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			var rw RemoteWindow
			cli.OnWindow(func(g RemoteWindow) { rw = g })
			w.ctxs[1].ExposeWindow(4096, func(win *Window, err error) {
				if err != nil {
					t.Fatal(err)
				}
				srv.GrantWindow(win)
			})
			w.eng.Run()
			var done bool
			onRead := func(_ []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				done = true
			}
			return func() {
				done = false
				cli.ReadRemote(rw, 0, size, onRead)
				for !done && w.eng.Step() {
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.build()
			for i := 0; i < 64; i++ {
				op() // warm: free lists, rings and maps reach their working size
			}
			if got := testing.AllocsPerRun(200, op); got > tc.ceiling {
				t.Errorf("%s: %.2f allocs per op, ceiling %.0f", tc.name, got, tc.ceiling)
			} else {
				t.Logf("%s: %.2f allocs per op", tc.name, got)
			}
		})
	}
}

// TestConnectCloseAllocs pins what one warmed establishment costs end to end:
// connect, one 64 B echo, close both ends, run to quiescence (QPs back in the
// cache, buffers back in the memory cache). Observation is not part of it: a
// channel's XR-Stat row is collected when someone looks (Channel.row), so
// opening and closing one registers and unregisters nothing. What is left
// (by -memprofilerate 1) is what the application keeps: per side one
// connection end, the Channel and its link born as one object (2); the two
// delivered Msgs (2); and this test's three closures (3). The test world's
// census of ends (trackEnds) is off: it is not the program's.
// Everything else is recycled (DESIGN §9.6): the CM's Dial and ConnReq with
// their step callbacks, the REQ, REP, RTU and both Conns made inside them;
// per side the estab with its receive pool and bound CM callback; the
// window's slot array; the client's waiter map. No
// QP — both come out of the cache, the one whose reply was still unacked at
// the close included, and RESET keeps their send queues' storage — and no
// send-queue storage: records queue through themselves. A QP gets no DCQCN
// state until its first CNP. The ceiling is what the code reaches: raising it
// is a regression to explain.
func TestConnectCloseAllocs(t *testing.T) {
	const ceiling = 7
	w := newWorld(t, 2, nil)
	for _, c := range w.ctxs {
		c.onEnd = nil
	}
	var srv *Channel
	w.ctxs[1].OnChannel(func(ch *Channel) {
		srv = ch
		ch.OnMessage(func(m *Msg) { m.Reply(nil, m.Len) })
	})
	if err := w.ctxs[1].Listen(5000); err != nil {
		t.Fatal(err)
	}
	op := func() {
		var echoed bool
		w.ctxs[0].Connect(1, 5000, func(cli *Channel, err error) {
			if err != nil {
				t.Fatal(err)
			}
			cli.SendMsg(nil, 64, func(_ *Msg, err error) {
				echoed = err == nil
				cli.Close()
				srv.Close()
			})
		})
		w.eng.Run()
		if !echoed {
			t.Fatal("no echo")
		}
	}
	for i := 0; i < 16; i++ {
		op() // warm: QP and memory caches, free lists, maps
	}
	if got := testing.AllocsPerRun(50, op); got > ceiling {
		t.Errorf("%.1f allocs per connect+echo+close, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.1f allocs per connect+echo+close", got)
	}
}
