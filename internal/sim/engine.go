// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every other subsystem in this repository — the fabric, the RNIC model,
// the X-RDMA middleware and the workload generators — runs on top of a
// single Engine. Time is virtual (nanosecond resolution) and advances only
// when events fire, so experiments covering simulated minutes complete in
// real milliseconds and are bit-for-bit reproducible for a given seed.
//
// The scheduler is built for throughput: pooled *event nodes on an
// engine-owned free-list, so the steady-state schedule→fire cycle performs
// zero heap allocations, in two tiers. An event due less than horizon after
// the instant it is scheduled goes to the near tier, any later one to the far
// tier, and Step fires the lesser of the two tiers' first events. The near
// tier, where every delay the data path schedules goes (packet hops, NIC
// steps paced or not, polls parked or not, ack delays), is a calendar ring
// of 32 ns buckets, each a linked list kept in (at, seq) order, found
// through an occupancy bitmap: scheduling a near event compares it with its
// bucket's tail alone, and popping one is an unlink. The far tier, the true
// timers (periodic scans, rate timers, retransmission timeouts), is a
// monomorphic 4-ary min-heap. Both tiers pop in (at, seq) order and an event
// never moves between them, so the firing order is the (at, seq) order of
// all live events, exactly as with one heap. Event handles are values
// carrying a generation counter, which keeps Pending/Cancel safe even after
// the underlying node has been recycled for a later event.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in simulated time, in nanoseconds since engine start.
type Time int64

// Duration is a span of simulated time, in nanoseconds. It is
// layout-compatible with time.Duration so the usual constants
// (time.Microsecond etc.) convert directly.
type Duration int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Dur converts a time.Duration into a sim Duration.
func Dur(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string { return Duration(t).String() }

func (d Duration) String() string {
	return time.Duration(d).String()
}

// event is a pooled scheduler node. Nodes are owned by the engine: they
// return to the free-list when they fire or are cancelled, and gen
// increments on every release so stale Event handles can detect reuse.
type event struct {
	at         Time
	seq        uint64 // FIFO tie-break for events at the same instant
	fn         func()
	gen        uint64
	next, prev *event // neighbours in its ring bucket's circular list
	idx        int32  // index in the far heap, 0 in the ring; -1 while not queued
	bg         bool   // background: does not keep Run alive
	far        bool   // queued in the far heap
}

// Event is a handle to a scheduled callback. Events are single-shot;
// cancelling an already-fired or already-cancelled event is a no-op. The
// zero Event is valid and never pending.
type Event struct {
	n   *event
	gen uint64
}

// Pending reports whether the event is still scheduled. A handle whose
// underlying node has fired, been cancelled, or been recycled for a later
// event reports false.
func (ev Event) Pending() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.idx >= 0
}

// At reports when the event will fire. Zero once no longer pending.
func (ev Event) At() Time {
	if ev.Pending() {
		return ev.n.at
	}
	return 0
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the simulation model is run-to-complete, which mirrors
// X-RDMA's own thread model (one context per thread, no cross-thread
// synchronization on the data plane). Independent Engines are fully
// isolated, so separate experiments may run on separate goroutines.
type Engine struct {
	now     Time
	seq     uint64
	cur     uint64   // seq of the event firing (or Step fired last); MaxUint64 between runs
	last    Time     // the latest instant a Reserve named
	near    ring     // due less than horizon after they were scheduled
	far     heap4    // due later
	free    []*event // not a FreeList: alloc would stop inlining (BenchmarkEngineChurn)
	stopped bool
	fired   uint64
	nonBg   int // foreground events pending

	aux map[any]any
}

// horizon splits the queue. Below it lies every delay the data path
// schedules: packet hops and NIC steps a few microseconds ahead, DCQCN-paced
// steps 5–64 µs ahead, the parked poll at 64 µs, xrdma's ack delay at 50 µs
// and the engine backoff. At or past it lie the true timers, mostly
// cancelled before they fire: deadlock scans (500 µs), the DCQCN rate timer
// (300 µs), keepalive, statistics, retransmission timeouts and the memory
// shrink (DESIGN §6 has the per-workload histogram, EXPERIMENTS.md P19 the
// measurement).
const horizon = 100 * Microsecond

// NewEngine returns an engine positioned at time zero. The far tier starts
// with room for a small world's standing timers (a few contexts' periodic
// scans and armed timeouts), so a small world's heap does not grow mid-run;
// the ring has its fixed size from the start.
func NewEngine() *Engine {
	return &Engine{far: make(heap4, 0, 64), cur: math.MaxUint64}
}

// Key is a place in the engine's (at, seq) order, the order events fire in.
type Key struct {
	At  Time
	seq uint64
}

// Before reports whether k orders before o.
func (k Key) Before(o Key) bool { return k.At < o.At || k.At == o.At && k.seq < o.seq }

// Reserve returns the key an event scheduled at t now would get, without
// scheduling one: the engine can then tell (Reached) whether that event
// would have fired yet. A reserved instant is pending work like a
// foreground event: Run does not return before it.
func (e *Engine) Reserve(t Time) Key {
	if t < e.now {
		panic(fmt.Sprintf("sim: reserving %v before now %v", t, e.now))
	}
	k := Key{t, e.seq}
	e.seq++
	e.last = max(e.last, t)
	return k
}

// Current is the key of the event now firing, or that Step fired last: it
// is Reached, and orders after every key Reached already and before every
// key reserved from now on. Before the first event and once Run or
// RunUntil returns it is now with the largest seq.
func (e *Engine) Current() Key { return Key{e.now, e.cur} }

// EndOf is the key that orders after every key at instant t.
func EndOf(t Time) Key { return Key{t, math.MaxUint64} }

// Reached reports whether an event with key k would have fired by now: k
// orders at or before the event now firing.
func (e *Engine) Reached(k Key) bool { return k.At < e.now || k.At == e.now && k.seq <= e.cur }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return e.near.n + len(e.far) }

// Aux returns the engine-scoped value stored under key, or nil: per-engine
// state (rnic's pools, telemetry) with no global registry to share.
func (e *Engine) Aux(key any) any {
	if e.aux == nil {
		return nil
	}
	return e.aux[key]
}

// SetAux stores an engine-scoped value under key.
func (e *Engine) SetAux(key, val any) {
	if e.aux == nil {
		e.aux = make(map[any]any)
	}
	e.aux[key] = val
}

// AuxInit returns the value stored under key, calling mk and storing its
// result on first use. This is the attachment hook for engine-keyed
// subsystems — the telemetry Set in particular — that must exist exactly
// once per engine regardless of which layer reaches for it first.
func (e *Engine) AuxInit(key any, mk func() any) any {
	if v := e.Aux(key); v != nil {
		return v
	}
	v := mk()
	e.SetAux(key, v)
	return v
}

// alloc takes a node from the free-list (or the heap allocator on a cold
// start) and stamps it with a fresh sequence number.
func (e *Engine) alloc(at Time, fn func()) *event {
	var n *event
	if k := len(e.free) - 1; k >= 0 {
		n = e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
	} else {
		n = &event{}
	}
	n.at = at
	n.seq = e.seq
	n.fn = fn
	n.bg = false
	e.seq++
	return n
}

// release invalidates all outstanding handles to n and returns it to the
// free-list.
func (e *Engine) release(n *event) {
	n.fn = nil
	n.idx = -1
	n.gen++
	e.free = append(e.free, n)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a model bug.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	n := e.alloc(t, fn)
	e.nonBg++
	n.far = t.Sub(e.now) >= horizon
	if n.far {
		e.far.push(n)
	} else {
		e.near.push(n)
	}
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	return e.At(e.now.Add(d), fn)
}

// AfterBg schedules a background event: it fires like any other event,
// but pending background events alone do not keep Run alive. Recurring
// maintenance timers (keepalive scans, statistics sampling) use this so a
// simulation with no real work left can drain.
func (e *Engine) AfterBg(d Duration, fn func()) Event {
	ev := e.At(e.now.Add(d), fn)
	ev.n.bg = true
	e.nonBg--
	return ev
}

// Cancel removes a pending event. Safe on the zero Event and on handles
// whose event has already fired, been cancelled, or been recycled.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.idx < 0 {
		return
	}
	if n.far {
		e.far.remove(int(n.idx))
	} else {
		e.near.remove(n)
	}
	if !n.bg {
		e.nonBg--
	}
	e.release(n)
}

// peek returns the earliest pending event, the lesser of the ring's first
// node and the far root, or nil when none remain.
func (e *Engine) peek() *event {
	n := e.near.first(e.now)
	if len(e.far) > 0 && (n == nil || before(e.far[0], n)) {
		return e.far[0]
	}
	return n
}

// Step fires the earliest pending event. It reports false when no events
// remain.
func (e *Engine) Step() bool {
	n := e.peek()
	if n == nil {
		return false
	}
	e.fire(n)
	return true
}

// fire dequeues and dispatches n, the event peek returned, so each fired
// event costs one peek whichever loop drives it.
func (e *Engine) fire(n *event) {
	if n.far {
		e.far.popMin()
	} else {
		e.near.remove(n)
	}
	e.now, e.cur = n.at, n.seq
	fn := n.fn
	if !n.bg {
		e.nonBg--
	}
	e.fired++
	// Release before dispatch: the node is reusable by anything fn
	// schedules, and handles to it already report not-pending.
	e.release(n)
	if fn != nil {
		fn()
	}
}

// Run processes events until no foreground events remain or Stop is
// called, then runs until the latest reserved instant if that is later.
// Background maintenance timers left in the queue do not prolong the run.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.nonBg > 0 && e.Step() {
	}
	if e.stopped {
		return
	}
	if e.cur = math.MaxUint64; e.last > e.now {
		e.RunUntil(e.last)
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to exactly t (even if the queue drained earlier).
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		n := e.peek()
		if n == nil || n.at > t {
			break
		}
		e.fire(n)
	}
	if !e.stopped {
		e.now, e.cur = max(e.now, t), math.MaxUint64
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// MaxTime is the largest representable simulation instant.
const MaxTime = Time(math.MaxInt64)

// --- near tier: a calendar ring -------------------------------------------
//
// The ring is a calendar queue (R. Brown, CACM 1988) sized so that it never
// wraps onto itself: ringBuckets buckets of bucketWidth nanoseconds each,
// spanning more than horizon. Every near event is due in [now, now+horizon),
// so the buckets from now's onward, taken round the ring, are in time order,
// and each bucket holds its events in (at, seq) order. The first node of the
// first occupied bucket at or after now's is the near tier's minimum.

const (
	bucketShift = 5
	bucketWidth = 1 << bucketShift          // ns
	ringBuckets = 4096                      // as many as the one-word summary indexes: 64 words of 64
	ringSpan    = ringBuckets * bucketWidth // 131.072 µs
)

// The buckets an event due in [now, now+horizon) can fall in must be fewer
// than ringBuckets, or two instants a lap apart would share a bucket: that
// holds while horizon fits in the span less one bucket. This fails to
// compile (a negative constant converted to uint) once it does not.
const _ = uint(ringSpan - bucketWidth - horizon)

// ring is the near tier. head[b] is bucket b's first node, whose prev is the
// bucket's last; occ has bit b set while bucket b is non-empty, and words
// has bit w set while occ[w] is non-zero.
type ring struct {
	head  [ringBuckets]*event
	occ   [ringBuckets / 64]uint64
	words uint64
	n     int
}

func bucket(at Time) int { return int(at>>bucketShift) & (ringBuckets - 1) }

// push links n into its bucket behind every node due at or before it. n
// holds the engine's newest seq, so a node due at n's instant precedes it,
// and n almost always goes last: the walk back from the tail stops at once.
func (r *ring) push(n *event) {
	n.idx = 0
	r.n++
	b := bucket(n.at)
	h := r.head[b]
	if h == nil {
		n.next, n.prev = n, n
		r.head[b] = n
		r.occ[b>>6] |= 1 << (b & 63)
		r.words |= 1 << (b >> 6)
		return
	}
	p := h.prev
	for p.at > n.at {
		if p == h {
			// n is due before every node in the bucket: it links in behind
			// the tail, which closes the circle in front of the old head.
			p = h.prev
			r.head[b] = n
			break
		}
		p = p.prev
	}
	n.prev, n.next = p, p.next
	p.next.prev = n
	p.next = n
}

// remove unlinks n, the first node when it fires, any node when cancelled.
func (r *ring) remove(n *event) {
	r.n--
	b := bucket(n.at)
	if n.next == n {
		r.head[b] = nil
		if r.occ[b>>6] &^= 1 << (b & 63); r.occ[b>>6] == 0 {
			r.words &^= 1 << (b >> 6)
		}
	} else {
		n.prev.next, n.next.prev = n.next, n.prev
		if r.head[b] == n {
			r.head[b] = n.next
		}
	}
	n.idx = -1
}

// first returns the earliest node, the head of the first occupied bucket at
// or after now's, round the ring, or nil when the ring is empty.
func (r *ring) first(now Time) *event {
	b := bucket(now)
	w := b >> 6
	if m := r.occ[w] >> (b & 63); m != 0 {
		return r.head[b+bits.TrailingZeros64(m)]
	}
	// The first non-empty word after now's or, with none, the first from the
	// ring's start: the scan wraps.
	ws := r.words &^ (2<<w - 1)
	if ws == 0 {
		if ws = r.words; ws == 0 {
			return nil
		}
	}
	j := bits.TrailingZeros64(ws)
	return r.head[j<<6+bits.TrailingZeros64(r.occ[j])]
}

// --- far tier: a 4-ary min-heap --------------------------------------------
//
// A 4-ary layout halves the tree depth versus a binary heap, trading a few
// extra comparisons per level for far fewer cache-missing levels — the
// winning trade for the pop-heavy workload of a discrete-event loop. Order
// is (at, seq): earliest deadline first, FIFO within an instant.

// before is the engine's total order. Sequence numbers are unique, so two
// distinct events are never equal under it.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heap4 is the far tier: a 4-ary min-heap of event nodes, each recording its
// index.
type heap4 []*event

func (h *heap4) push(n *event) {
	*h = append(*h, n)
	h.siftUp(len(*h)-1, n)
}

// popMin removes the root.
func (h *heap4) popMin() {
	s := *h
	last := len(s) - 1
	root, tail := s[0], s[last]
	s[last] = nil
	*h = s[:last]
	if last > 0 {
		h.siftDown(0, tail)
	}
	root.idx = -1
}

// remove extracts the node at index i.
func (h *heap4) remove(i int) {
	s := *h
	last := len(s) - 1
	n, tail := s[i], s[last]
	s[last] = nil
	*h = s[:last]
	if i < last {
		h.siftDown(i, tail)
		if int(tail.idx) == i {
			h.siftUp(i, tail)
		}
	}
	n.idx = -1
}

// siftUp places n at index i or above. n need not currently be in the
// slice at i; the final slot is written exactly once.
func (h heap4) siftUp(i int, n *event) {
	for i > 0 {
		p := (i - 1) >> 2
		pn := h[p]
		if before(pn, n) {
			break
		}
		h[i] = pn
		pn.idx = int32(i)
		i = p
	}
	h[i] = n
	n.idx = int32(i)
}

// siftDown places n at index i or below.
func (h heap4) siftDown(i int, n *event) {
	size := len(h)
	for {
		c := i<<2 + 1
		if c >= size {
			break
		}
		// Smallest of up to four children.
		m, mn := c, h[c]
		end := c + 4
		if end > size {
			end = size
		}
		for j := c + 1; j < end; j++ {
			if cn := h[j]; before(cn, mn) {
				m, mn = j, cn
			}
		}
		if before(n, mn) {
			break
		}
		h[i] = mn
		mn.idx = int32(i)
		i = m
	}
	h[i] = n
	n.idx = int32(i)
}
