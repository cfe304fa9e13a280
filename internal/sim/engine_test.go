package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.After(Duration(10*(i+1)), func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*100), func() { count++ })
	}
	e.RunUntil(500)
	if count != 5 {
		t.Fatalf("RunUntil(500) fired %d events, want 5", count)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	e.RunFor(200)
	if count != 7 {
		t.Fatalf("after RunFor(200) fired %d events, want 7", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the loop: fired %d", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.After(1, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("nested scheduling depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

// Property: for any batch of (delay, id) pairs, events fire in
// nondecreasing time order and same-time events fire in submission order.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			at := Time(d % 64) // force collisions
			e.At(at, func() { fired = append(fired, firing{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Cancelling a background event must undo AfterBg's nonBg compensation,
// not double-decrement it — otherwise Run would exit early (or spin) once
// foreground work remains.
func TestEngineCancelBackgroundAccounting(t *testing.T) {
	e := NewEngine()
	bg := e.AfterBg(1000, func() {})
	if e.nonBg != 0 {
		t.Fatalf("nonBg after AfterBg = %d, want 0", e.nonBg)
	}
	e.Cancel(bg)
	if e.nonBg != 0 {
		t.Fatalf("nonBg after cancelling bg event = %d, want 0", e.nonBg)
	}
	fired := false
	e.After(10, func() { fired = true })
	if e.nonBg != 1 {
		t.Fatalf("nonBg with one fg event = %d, want 1", e.nonBg)
	}
	e.Run()
	if !fired {
		t.Fatal("foreground event did not fire after bg cancel")
	}
	if e.nonBg != 0 {
		t.Fatalf("nonBg after drain = %d, want 0", e.nonBg)
	}
	// Mixed population: cancel fg and bg, drain, accounting must balance.
	fg := e.After(100, func() {})
	bg2 := e.AfterBg(100, func() {})
	e.After(50, func() {})
	e.Cancel(fg)
	e.Cancel(bg2)
	e.Run()
	if e.nonBg != 0 || e.Pending() != 0 {
		t.Fatalf("after mixed cancel: nonBg=%d pending=%d, want 0/0", e.nonBg, e.Pending())
	}
}

// Cancelling from inside a firing callback: both another pending event and
// the (already-released) firing event itself must be safe.
func TestEngineCancelInsideCallback(t *testing.T) {
	e := NewEngine()
	var fired []string
	var self, victim Event
	self = e.After(10, func() {
		fired = append(fired, "a")
		e.Cancel(self)   // self-cancel while firing: no-op
		e.Cancel(victim) // cancel a later event mid-callback
	})
	victim = e.After(20, func() { fired = append(fired, "victim") })
	e.After(30, func() { fired = append(fired, "c") })
	e.Run()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Fatalf("fired = %v, want [a c]", fired)
	}
	if e.nonBg != 0 {
		t.Fatalf("nonBg = %d, want 0", e.nonBg)
	}
}

// A stale handle to a fired event must not cancel the unrelated event that
// recycled its node — the generation counter is what prevents it.
func TestEngineStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	firstFired := false
	stale := e.After(10, func() { firstFired = true })
	e.Run()
	if !firstFired || stale.Pending() {
		t.Fatal("first event should have fired and be non-pending")
	}
	// The next schedule reuses the pooled node.
	secondFired := false
	fresh := e.After(10, func() { secondFired = true })
	if !fresh.Pending() {
		t.Fatal("fresh event should be pending")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending after node reuse")
	}
	e.Cancel(stale) // must NOT cancel the recycled event
	if !fresh.Pending() {
		t.Fatal("stale cancel killed the recycled event")
	}
	e.Run()
	if !secondFired {
		t.Fatal("recycled event did not fire")
	}
}

// FIFO ordering of same-instant events must survive node reuse: recycled
// nodes get fresh sequence numbers, never their old ones.
func TestEngineFIFOAcrossPoolReuse(t *testing.T) {
	e := NewEngine()
	const k = 32
	for round := 0; round < 5; round++ {
		var got []int
		at := e.Now().Add(100)
		// Interleave schedule/cancel so reuse order is scrambled.
		for i := 0; i < k; i++ {
			i := i
			ev := e.At(at, func() { got = append(got, -1) })
			e.Cancel(ev)
			e.At(at, func() { got = append(got, i) })
		}
		e.Run()
		if len(got) != k {
			t.Fatalf("round %d: fired %d events, want %d", round, len(got), k)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: same-instant events not FIFO after reuse: %v", round, got)
			}
		}
	}
}

// The free-list must actually be used: steady-state churn should not grow
// the live node population.
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine()
	e.After(1, func() {})
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free-list size = %d, want 1", len(e.free))
	}
	n := e.free[0]
	ev := e.After(1, func() {})
	if ev.n != n {
		t.Fatal("schedule did not reuse the pooled node")
	}
	e.Run()
}

// TestEngineFootprint holds the queue's memory: a node fits one 64-byte size
// class with its bucket links, and the ring an engine carries from birth
// stays within 16 KiB.
func TestEngineFootprint(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Errorf("event node is %d bytes, budget 64", n)
	}
	if n := unsafe.Sizeof(ring{}); n > 16<<10 {
		t.Errorf("ring is %d bytes, budget %d", n, 16<<10)
	}
}

func TestDurationHelpers(t *testing.T) {
	if (2 * Microsecond).Micros() != 2 {
		t.Fatal("Micros conversion wrong")
	}
	if (3 * Second).Seconds() != 3 {
		t.Fatal("Seconds conversion wrong")
	}
	if Time(5).Add(10) != 15 {
		t.Fatal("Add wrong")
	}
	if Time(15).Sub(5) != 10 {
		t.Fatal("Sub wrong")
	}
}

// TestReserve: a reserved key orders against events exactly as an event
// scheduled at the same moment would, and Run does not stop short of it.
func TestReserve(t *testing.T) {
	e := NewEngine()
	var k Key
	var before, after, within bool
	e.At(0, func() {
		e.At(10, func() { before = e.Reached(k) })
		k = e.Reserve(10)
		within = e.Reached(k) || !e.Reached(e.Current())
		e.At(10, func() { after = e.Reached(k) })
	})
	e.Run()
	if before || !after || within {
		t.Errorf("reached by an event scheduled before the reserve %v, after it %v; in the reserving event %v", before, after, within)
	}
	e.At(e.Now().Add(5), func() { k = e.Reserve(e.Now().Add(100)) })
	e.Run()
	if e.Now() != k.At || !e.Reached(k) || !e.Reached(EndOf(e.Now())) {
		t.Errorf("Run ended at %v with the key at %v reached %v, want it run to the reserved instant", e.Now(), k.At, e.Reached(k))
	}
}
