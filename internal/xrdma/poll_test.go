package xrdma

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// parkedAt builds a one-context world whose poller was woken out of epoll and
// has polled once, idle, at the returned instant t0: idlePolls is 1 and 63
// spins are left before it sleeps again. On the way it holds the first row of
// the accounting table: a started, idle context enters event mode at the
// instant its 64th spin fires, with exactly 64 polls counted.
func parkedAt(t *testing.T) (*testWorld, *Context, sim.Time) {
	t.Helper()
	w := newWorld(t, 1, nil)
	c := w.ctxs[0]
	w.eng.Run()
	if now := w.eng.Now(); !c.eventMode || now != sim.Time(idleSpins*pollEvery) || c.Stats.Polls != idleSpins {
		t.Fatalf("idle → event mode: eventMode=%v at %v with %d polls, want true at 64µs with 64", c.eventMode, now, c.Stats.Polls)
	}
	c.wake(c.eng.Now())
	w.eng.RunFor(2 * sim.Microsecond) // the epoll wake latency, then one real poll
	t0 := w.eng.Now()
	if c.eventMode || c.lastPoll != t0 || c.Stats.Polls != idleSpins+1 || c.idlePolls != 1 {
		t.Fatalf("after the wake: eventMode=%v lastPoll=%v polls=%d idle=%d", c.eventMode, c.lastPoll, c.Stats.Polls, c.idlePolls)
	}
	return w, c, t0
}

// wakeNow is a completion visible at once on an empty CQ.
func wakeNow(c *Context) { c.wake(c.eng.Now()) }

// TestParkedPollAccounting: a parked poller's skipped spins are arithmetic, and
// the arithmetic gives what firing them gave: every row passes unedited on the
// parent commit, which fired all 64 spins — the tie row because the test's
// event is scheduled after the spin it coincides with, which is the order the
// one stated rule (skipSpins) assumes — except that the "left alone" row reads,
// right after the wake, the 62 spins the parked event has yet to account.
func TestParkedPollAccounting(t *testing.T) {
	const us, ns = sim.Microsecond, sim.Nanosecond
	cases := []struct {
		name string
		at   sim.Duration     // after t0
		do   func(c *Context) // what unparks
		// Right after do, relative to t0:
		polls, idle int
		last, next  sim.Duration
		// After Engine.Run: when the poller reached event mode, and the gap of
		// the slow poll it logged on the way (empty: none).
		sleepAt sim.Duration
		slowGap string
	}{
		{"wake mid-park: poll 100 ns later", 10*us + 350*ns, wakeNow,
			10, 11, 10 * us, 10*us + 450*ns, 62*us + 450*ns, ""},
		{"wake mid-park: the next spin is sooner", 10*us + 950*ns, wakeNow,
			10, 11, 10 * us, 11 * us, 63 * us, ""},
		{"tie: a wake on a spin instant finds the spin already fired", 10 * us, wakeNow,
			10, 11, 10 * us, 10*us + 100*ns, 62*us + 100*ns, ""},
		{"wake under 100 ns before the 64th spin: left alone", 62*us + 950*ns, wakeNow,
			0, 1, 0, 63 * us, 63 * us, ""},
		{"work mid-park: one slow poll, its gap from the last spin", 10*us + 350*ns, func(c *Context) { c.InjectWork(100 * us) },
			10, 11, 10 * us, 11 * us, 162*us + 350*ns, "100.35µs"},
		{"short work mid-park: over by the next spin", 10*us + 350*ns, func(c *Context) { c.InjectWork(500 * ns) },
			10, 11, 10 * us, 11 * us, 63 * us, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, c, t0 := parkedAt(t)
			p0, slow0 := c.Stats.Polls, c.Stats.SlowPolls
			w.recordIncidents()
			w.eng.RunUntil(t0.Add(tc.at) - 1)
			w.eng.At(t0.Add(tc.at), func() {
				tc.do(c)
				got := fmt.Sprintf("polls=+%d idle=%d last=+%v next=+%v", c.Stats.Polls-p0, c.idlePolls, c.lastPoll.Sub(t0), c.pollEv.At().Sub(t0))
				want := fmt.Sprintf("polls=+%d idle=%d last=+%v next=+%v", tc.polls, tc.idle, tc.last, tc.next)
				if got != want {
					t.Errorf("right after: %s, want %s", got, want)
				}
			})
			for !c.eventMode && w.eng.Step() {
			}
			if got := w.eng.Now().Sub(t0); got != tc.sleepAt {
				t.Errorf("event mode at t0+%v, want t0+%v", got, tc.sleepAt)
			}
			// Pulled forward, delayed or neither: sleeping takes 63 more idle polls.
			if got := c.Stats.Polls - p0; got != idleSpins-1 {
				t.Errorf("polls until event mode: +%d, want +%d", got, idleSpins-1)
			}
			var gaps []string
			for _, gap := range w.incidents(t, c.track, telemetry.CatSlowPoll) {
				gaps = append(gaps, sim.Duration(gap).String())
			}
			if got := strings.Join(gaps, ","); got != tc.slowGap || c.Stats.SlowPolls-slow0 != int64(len(gaps)) {
				t.Errorf("slow polls: gaps %q, counted %d, want %q", got, c.Stats.SlowPolls-slow0, tc.slowGap)
			}
		})
	}
}

// TestPollsGaugeWhileParked: a world that RunFor stops mid-park reads, through
// its "polls" gauge, what the same world reads once run to its parking event
// (Stats.Polls there, exact) less the spins still ahead of the stop. Reading
// the gauge leaves the poller as it was: the stopped world, run on, parks at
// the same instant with the same count. The last row stops past the parking
// event, where the gauge is Stats.Polls.
func TestPollsGaugeWhileParked(t *testing.T) {
	const us, ns = sim.Microsecond, sim.Nanosecond
	gauge := func(c *Context) int64 {
		v, _ := c.tel.Reg.Value(c.track + ".polls")
		return v
	}
	toPark := func(w *testWorld, c *Context) (sim.Time, int64) {
		for !c.eventMode && w.eng.Step() {
		}
		return w.eng.Now(), c.Stats.Polls
	}
	for _, stop := range []sim.Duration{0, 350 * ns, 10 * us, 10*us + 350*ns, 62*us + 999*ns, 63 * us, 80 * us} {
		t.Run(stop.String(), func(t *testing.T) {
			w, c, _ := parkedAt(t)
			park, polls := toPark(w, c)

			w, c, t0 := parkedAt(t)
			w.eng.RunFor(stop)
			ahead := int64(0) // spin instants after the stop, up to the parking event
			for s := park; s > t0.Add(stop); s -= sim.Time(pollEvery) {
				ahead++
			}
			if got, again := gauge(c), gauge(c); got != polls-ahead || again != got {
				t.Errorf("gauge at t0+%v: %d then %d, want %d (%d at the parking event, %d spins ahead)", stop, got, again, polls-ahead, polls, ahead)
			}
			if p, n := toPark(w, c); p != max(park, t0.Add(stop)) || n != polls {
				t.Errorf("run on after the read: in event mode at %v with %d polls, want %v with %d", p, n, park, polls)
			}
		})
	}
}

// TestWakeDuringWorkKeepsOnePoll: the poll that application work defers is the
// pending poll. A CQE arriving while the thread is busy used to find nothing
// pending and start a second chain; both fired at busyUntil and the second,
// finding the CQs just drained, was counted as a poll.
func TestWakeDuringWorkKeepsOnePoll(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	echoServer(srv)
	c := w.ctxs[0]
	cli.SendMsg([]byte("x"), 0, func(*Msg, error) {})
	c.InjectWork(200 * sim.Microsecond)
	busy := c.busyUntil
	w.eng.RunUntil(busy - 1)
	if c.recvCQ.Len() == 0 || c.eventMode {
		t.Fatalf("the reply's CQE did not arrive during the work (recvCQ %d, eventMode %v)", c.recvCQ.Len(), c.eventMode)
	}
	if !c.pollEv.Pending() || c.pollEv.At() != busy {
		t.Fatalf("pending poll at %v (pending=%v), want the deferred one at busyUntil %v", c.pollEv.At(), c.pollEv.Pending(), busy)
	}
	polls := c.Stats.Polls
	w.eng.RunUntil(busy)
	if got := c.Stats.Polls - polls; got != 1 {
		t.Fatalf("%d polls at busyUntil, want 1", got)
	}
}

// TestStopUnparks: a context that stops lets go of the engine where it always
// did — its last tick fires at the next spin instant and returns — not at the
// 64th spin a parked poller would otherwise hold Engine.Run open for.
func TestStopUnparks(t *testing.T) {
	for name, stop := range map[string]func(*Context){"Close": (*Context).Close, "Shutdown": (*Context).Shutdown} {
		t.Run(name, func(t *testing.T) {
			w, c, t0 := parkedAt(t)
			w.eng.RunFor(10*sim.Microsecond + 350*sim.Nanosecond)
			stop(c)
			w.eng.Run()
			if got := w.eng.Now().Sub(t0); got != 11*sim.Microsecond { // the parent's value
				t.Fatalf("Run ended at t0+%v, want t0+11µs", got)
			}
		})
	}
}

// TestIdleEventBudget is the event-count twin of TestSteadyStateAllocs: idle
// spins are not engine events.
func TestIdleEventBudget(t *testing.T) {
	t.Run("a started, idle context fires one poll event per idle period", func(t *testing.T) {
		w := newWorld(t, 1, nil)
		w.eng.Run()
		if got := w.eng.Fired(); got != 1 {
			t.Errorf("%d events from start to event mode, want 1 (the 64th spin)", got)
		}
		fired := w.eng.Fired()
		w.ctxs[0].wake(w.eng.Now())
		w.eng.Run()
		if got := w.eng.Fired() - fired; got != 3 {
			t.Errorf("%d events from wake to event mode, want 3 (epoll wake, first poll, 64th spin)", got)
		}
	})
	t.Run("classic 64 B round trip to quiescence", func(t *testing.T) {
		w := newWorld(t, 2, nil)
		cli, srv := w.connect(t, 0, 1, 5000)
		srv.OnMessage(func(m *Msg) { m.Reply(nil, m.Len) })
		op := func() {
			cli.SendMsg(nil, 64, func(_ *Msg, err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
			w.eng.Run()
		}
		for i := 0; i < 64; i++ {
			op()
		}
		fired := w.eng.Fired()
		op()
		if got := w.eng.Fired() - fired; got > 37 {
			t.Errorf("%d events per warmed round trip driven to quiescence, ceiling 37", got)
		}
	})
	t.Run("an armed SRQ limit that is not crossed costs no event and no allocation", func(t *testing.T) {
		// A default-depth queue arms its limit; one that fits a block has
		// nothing to grow into and arms none (sharedRQ).
		var events [2]uint64
		var allocs [2]float64
		for i, size := range []int{DefaultConfig().SRQSize, 32} {
			w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.QPsPerPeer, cfg.SRQSize = 1, size })
			clis, srvs := openMuxed(t, w, 0, 1, 5000, 1)
			srvs[0].OnMessage(func(m *Msg) { m.Reply(nil, m.Len) })
			onResp := func(_ *Msg, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			op := func() {
				clis[0].SendMsg(nil, 64, onResp)
				w.eng.Run()
			}
			for k := 0; k < 64; k++ {
				op()
			}
			fired := w.eng.Fired()
			allocs[i] = testing.AllocsPerRun(100, op)
			events[i] = w.eng.Fired() - fired // over AllocsPerRun's 101 round trips
			if armed := srqFill(w.ctxs[1]) < size; armed != (i == 0) || w.ctxs[1].Stats.SRQGrows != 0 {
				t.Fatalf("SRQSize %d: limit armed=%v, %d grows", size, armed, w.ctxs[1].Stats.SRQGrows)
			}
		}
		if events[0] != events[1] || allocs[0] != allocs[1] {
			t.Errorf("101 warmed mux round trips: %d events and %.2f allocs each with the limit armed, %d and %.2f without", events[0], allocs[0], events[1], allocs[1])
		}
	})
}

// dispatchWatch records what each of a context's polls drained, copied when
// the poll returns, and what each dispatch event ran, read where the dispatch
// reads it, through the context's bound callbacks. A poll that began with a
// dispatch of the last one still pending counts as early.
type dispatchWatch struct {
	polled, ran []cqeID
	widest      int // the most completions one poll drained
	early       int
}

type cqeID struct {
	recv bool
	qpn  uint32
	wrID uint64
}

func watchDispatch(c *Context) *dispatchWatch {
	d := &dispatchWatch{}
	id := func(recv bool, e *rnic.CQE) cqeID { return cqeID{recv, e.QPN, e.WRID} }
	poll, dispatch := c.pollFn, c.dispatchFn
	c.pollFn = func() {
		if c.started && c.busyUntil <= c.eng.Now() && len(d.ran) < len(d.polled) {
			d.early++ // pollTick is about to call pollOnce
		}
		n := c.Stats.Dispatched
		poll()
		if c.Stats.Dispatched > n {
			for i := range c.cqeBuf {
				d.polled = append(d.polled, id(i >= c.sends, &c.cqeBuf[i]))
			}
			d.widest = max(d.widest, int(c.Stats.Dispatched-n))
		}
	}
	c.dispatchFn = func() {
		d.ran = append(d.ran, id(c.disp >= c.sends, &c.cqeBuf[c.disp]))
		dispatch()
	}
	if c.pollEv.Pending() { // re-arm the pending poll with the wrapper
		at := c.pollEv.At()
		c.eng.Cancel(c.pollEv)
		c.pollEv = c.eng.At(at, c.pollFn)
	}
	return d
}

// TestDispatchRunsEachPolledCompletionOnce: a poll's completions wait out
// their software cost in the poll's own buffer, and each dispatch event runs
// the next one in place. So no poll may start before the last dispatch of the
// one before, and a handler that closes its channel or its whole context
// (which drains the CQs out of band) must leave the completions still pending
// as they were: each runs exactly once, in the order the poll drained them.
func TestDispatchRunsEachPolledCompletionOnce(t *testing.T) {
	for _, closer := range []string{"none", "channel", "context"} {
		t.Run(closer, func(t *testing.T) {
			w := newWorld(t, 2, nil)
			cli, srv := w.connect(t, 0, 1, 5000)
			w.eng.Run()
			c := w.ctxs[1]
			d := watchDispatch(c)
			const burst = 12
			got := 0
			srv.OnMessage(func(*Msg) {
				if got++; got != 3 {
					return
				}
				switch closer {
				case "channel":
					srv.Close()
				case "context":
					c.Close()
				}
			})
			c.InjectWork(100 * sim.Microsecond) // the burst lands while the thread is busy
			for range burst {
				if err := cli.SendMsg(make([]byte, 64), 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			w.eng.Run()
			if d.widest < 8 {
				t.Fatalf("the widest poll drained %d completions, want ≥ 8", d.widest)
			}
			if d.early != 0 {
				t.Errorf("%d polls started with a dispatch of the previous poll pending", d.early)
			}
			if !slices.Equal(d.ran, d.polled) {
				t.Errorf("dispatched %d completions %v, polled %d %v: want each once, in poll order", len(d.ran), d.ran, len(d.polled), d.polled)
			}
			want := 3 // a closing handler's message is the last delivered
			if closer == "none" {
				want = burst
			}
			if got != want {
				t.Errorf("%d messages delivered, want %d", got, want)
			}
			if c.posted.Len() != 0 {
				t.Errorf("%d records still posted", c.posted.Len())
			}
		})
	}
}
