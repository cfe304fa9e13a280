package sim

import (
	"fmt"
	"slices"
	"testing"
)

// oracleEvent is the reference's record of one scheduled event.
type oracleEvent struct {
	id    int
	at    Time
	seq   uint64
	bg    bool
	live  bool
	stop  bool // its callback calls Stop
	child bool // its callback schedules one more event
}

// orderOracle runs an Engine beside a reference that keeps the live events in
// a plain slice and fires the minimum (at, seq) by linear scan. ops is the
// program: each operation and its arguments are decoded from it, and an
// exhausted program reads zeros.
type orderOracle struct {
	t       *testing.T
	e       *Engine
	ops     []byte
	pos     int
	now     Time
	seq     uint64
	stopped bool
	all     []*oracleEvent // by id; handles[id] is its Event
	handles []Event
	live    []*oracleEvent
	lastAt  Time // when the last fired event was due, and its tier
	lastFar bool

	// What the program reached, for TestEngineOrderOracle's coverage check.
	// Far is the heap, near the ring; a position is where in its bucket a
	// near event was linked in or cancelled.
	firedFar, firedNear, crossTies     int
	cancelFar, cancelNear, cancelStale int
	inserted, cancelled                [posKinds]int
	sharedBucket, wraps                int // two instants in one bucket; a first-node scan past the ring's end
}

// Where a node sits in its ring bucket's list.
const (
	posOnly = iota
	posHead
	posMiddle
	posTail
	posKinds
)

var posNames = [posKinds]string{"only", "head", "middle", "tail"}

// ringPos reports where in its bucket the queued near node n sits, and
// whether the bucket holds an instant other than n's.
func (o *orderOracle) ringPos(n *event) (pos int, shared bool) {
	h := o.e.near.head[bucket(n.at)]
	for p := h.next; p != h; p = p.next {
		shared = shared || p.at != h.at
	}
	switch {
	case n.next == n:
		return posOnly, shared
	case n == h:
		return posHead, shared
	case n.next == h:
		return posTail, shared
	}
	return posMiddle, shared
}

func (o *orderOracle) byte() byte {
	if o.pos >= len(o.ops) {
		return 0
	}
	b := o.ops[o.pos]
	o.pos++
	return b
}

// delay decodes a delay that lands on every side of the horizon: the same
// instant, just inside and just past it, timer distances, and the exact
// instant of a live event (a tie with whichever tier that event is in).
func (o *orderOracle) delay() Duration {
	b := o.byte()
	k := Duration(b >> 3)
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return k
	case 2:
		return horizon - 1 - k
	case 3:
		return horizon + k
	case 4:
		return k * horizon / 8
	case 5:
		return (1 + k) * horizon
	case 6:
		if len(o.live) > 0 {
			return o.live[int(k)%len(o.live)].at.Sub(o.now)
		}
		return k
	}
	return 100*Microsecond + k*Microsecond/2
}

// schedule issues one At (kind 0), After (1) or AfterBg (2) on both sides.
func (o *orderOracle) schedule(kind, flags byte) {
	d := o.delay()
	r := &oracleEvent{id: len(o.all), at: o.now.Add(d), seq: o.seq, live: true,
		bg: kind == 2, stop: flags == 15, child: flags%4 == 1}
	o.seq++
	fn := func() { o.fired(r) }
	var ev Event
	switch kind {
	case 0:
		ev = o.e.At(r.at, fn)
	case 1:
		ev = o.e.After(d, fn)
	default:
		ev = o.e.AfterBg(d, fn)
	}
	if !ev.n.far {
		pos, shared := o.ringPos(ev.n)
		o.inserted[pos]++
		if shared {
			o.sharedBucket++
		}
	}
	o.all = append(o.all, r)
	o.handles = append(o.handles, ev)
	o.live = append(o.live, r)
}

// min is the reference's next event: the live one least in (at, seq).
func (o *orderOracle) min() *oracleEvent {
	var m *oracleEvent
	for _, r := range o.live {
		if m == nil || r.at < m.at || (r.at == m.at && r.seq < m.seq) {
			m = r
		}
	}
	return m
}

func (o *orderOracle) drop(r *oracleEvent) {
	r.live = false
	for i, l := range o.live {
		if l == r {
			o.live[i] = o.live[len(o.live)-1]
			o.live = o.live[:len(o.live)-1]
			return
		}
	}
}

// fired is every event's callback: it must be the reference's minimum.
func (o *orderOracle) fired(r *oracleEvent) {
	if m := o.min(); m != r {
		o.t.Fatalf("op %d: engine fired event %d (at %v, seq %d), reference fires %s", o.pos, r.id, r.at, r.seq, describe(m))
	}
	// The node is released but not yet reused: it still records its tier.
	ev := o.handles[r.id]
	if ev.n.far {
		o.firedFar++
	} else {
		o.firedNear++
		// The scan started at now's bucket; a lower one means it went round.
		if bucket(r.at) < bucket(o.now) {
			o.wraps++
		}
	}
	if o.firedFar+o.firedNear > 1 && o.lastAt == r.at && o.lastFar != ev.n.far {
		o.crossTies++
	}
	o.lastAt, o.lastFar = r.at, ev.n.far
	o.drop(r)
	o.now = r.at
	o.check("fired")
	if r.stop {
		o.e.Stop()
		o.stopped = true
	}
	if r.child {
		o.schedule(o.byte()%3, 0)
	}
}

func describe(r *oracleEvent) string {
	if r == nil {
		return "nothing"
	}
	return fmt.Sprintf("event %d (at %v, seq %d)", r.id, r.at, r.seq)
}

// check compares the engine's clock, queue size, foreground count and every
// handle ever issued with the reference.
func (o *orderOracle) check(after string) {
	t, e := o.t, o.e
	t.Helper()
	fg := 0
	for _, r := range o.live {
		if !r.bg {
			fg++
		}
	}
	if e.Now() != o.now || e.Pending() != len(o.live) || e.nonBg != fg {
		t.Fatalf("op %d, after %s: now %v pending %d foreground %d, reference %v %d %d",
			o.pos, after, e.Now(), e.Pending(), e.nonBg, o.now, len(o.live), fg)
	}
	for id, ev := range o.handles {
		r := o.all[id]
		var at Time
		if r.live {
			at = r.at
		}
		if ev.Pending() != r.live || ev.At() != at {
			t.Fatalf("op %d, after %s: handle %d Pending %v At %v, reference %v %v", o.pos, after, id, ev.Pending(), ev.At(), r.live, at)
		}
	}
}

// runTo checks what RunUntil(t) left behind: unless an event stopped it,
// nothing due by t is pending and the clock reads t.
func (o *orderOracle) runTo(t Time) {
	if !o.stopped {
		if m := o.min(); m != nil && m.at <= t {
			o.t.Fatalf("op %d: RunUntil(%v) returned with %s pending", o.pos, t, describe(m))
		}
		o.now = max(o.now, t)
	}
}

// checkEngineOrder runs the program ops on an Engine and on the reference and
// fails at the first disagreement in the fired event, Now, Pending, or a
// handle's Pending or At.
func checkEngineOrder(t *testing.T, ops []byte) *orderOracle {
	o := &orderOracle{t: t, e: NewEngine(), ops: ops}
	for o.pos < len(o.ops) {
		b := o.byte()
		switch b % 16 {
		case 0, 1, 2:
			o.schedule(0, b>>4)
		case 3, 4:
			o.schedule(1, b>>4)
		case 5, 6:
			o.schedule(2, b>>4)
		case 7, 8:
			// The zero handle, a live event's, or any issued one: live, fired
			// or cancelled.
			var ev Event
			var r *oracleEvent
			switch k := int(o.byte()); {
			case k%2 == 1 && len(o.live) > 0:
				r = o.live[k/2%len(o.live)]
			case k > 0 && len(o.all) > 0:
				r = o.all[k/2%len(o.all)]
			}
			if r != nil {
				ev = o.handles[r.id]
				switch {
				case !r.live:
					o.cancelStale++
				case ev.n.far:
					o.cancelFar++
				default:
					o.cancelNear++
					pos, _ := o.ringPos(ev.n)
					o.cancelled[pos]++
				}
				o.drop(r)
			}
			o.e.Cancel(ev)
		case 9, 10, 11, 12:
			want := len(o.live) > 0
			if got := o.e.Step(); got != want {
				t.Fatalf("op %d: Step reported %v with %d pending", o.pos, got, len(o.live))
			}
		case 13:
			o.stopped = false
			until := o.now.Add(o.delay())
			o.e.RunUntil(until)
			o.runTo(until)
		case 14:
			o.stopped = false
			until := o.now.Add(o.delay())
			o.e.RunFor(until.Sub(o.now))
			o.runTo(until)
		case 15:
			o.stopped = false
			o.e.Run()
			if !o.stopped {
				for _, r := range o.live {
					if !r.bg {
						t.Fatalf("op %d: Run returned with foreground %s pending", o.pos, describe(r))
					}
				}
			}
		}
		o.check(fmt.Sprintf("op %d", b%16))
	}
	return o
}

// ringWrap schedules an event just inside the horizon, fires it, and does it
// again: the second lands past the ring's last bucket, in a lower one than
// now's, so finding it takes a scan that wraps.
var ringWrap = []byte{0x00, 0x02, 0x09, 0x00, 0x02, 0x09}

// TestEngineOrderOracle: seeded random mixes of every scheduling, cancelling
// and running call, checked after every fired event against a linear scan
// for the minimum (at, seq). The two-tier queue must be indistinguishable
// from it.
func TestEngineOrderOracle(t *testing.T) {
	if o := checkEngineOrder(t, ringWrap); o.wraps != 1 {
		t.Errorf("ringWrap wrapped the scan %d times, want 1", o.wraps)
	}
	var reach orderOracle
	for seed := uint64(1); seed <= 64; seed++ {
		rng := NewRNG(seed)
		ops := make([]byte, 1500)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			o := checkEngineOrder(t, ops)
			reach.firedFar += o.firedFar
			reach.firedNear += o.firedNear
			reach.crossTies += o.crossTies
			reach.cancelFar += o.cancelFar
			reach.cancelNear += o.cancelNear
			reach.cancelStale += o.cancelStale
			for k := range posKinds {
				reach.inserted[k] += o.inserted[k]
				reach.cancelled[k] += o.cancelled[k]
			}
			reach.sharedBucket += o.sharedBucket
			reach.wraps += o.wraps
		})
	}
	// The mixes must reach what the split could get wrong: both tiers fired
	// and cancelled, stale handles, and a far event tied with a near one;
	// and what the ring could: a node linked in and cancelled at every place
	// in its bucket, two instants sharing one, and a scan that wraps.
	t.Logf("fired far %d near %d, cross-tier ties %d; cancelled far %d near %d stale %d",
		reach.firedFar, reach.firedNear, reach.crossTies, reach.cancelFar, reach.cancelNear, reach.cancelStale)
	t.Logf("ring: inserted %v, cancelled %v (%v); two instants in a bucket %d, wrapping scans %d",
		reach.inserted, reach.cancelled, posNames, reach.sharedBucket, reach.wraps)
	reached := []int{reach.firedFar, reach.firedNear, reach.crossTies, reach.cancelFar, reach.cancelNear, reach.cancelStale,
		reach.sharedBucket, reach.wraps}
	reached = append(append(reached, reach.inserted[:]...), reach.cancelled[:]...)
	if slices.Min(reached) == 0 {
		t.Error("the mixes missed a case")
	}
}

// FuzzEngineOrder runs TestEngineOrderOracle's check on coverage-guided
// programs.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x03, 0x05, 0x13, 0x1d, 0x09, 0x0d, 0x2e, 0x0f})
	f.Add([]byte{0x00, 0x06, 0x00, 0x05, 0x05, 0x03, 0x0e, 0x26, 0x09, 0x09, 0x07, 0x01, 0x0f})
	f.Add(ringWrap)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkEngineOrder(t, ops)
	})
}
