package telemetry

import (
	"fmt"
	"io"
	"sort"

	"xrdma/internal/sim"
)

// Event kinds, mirroring the Chrome trace_event phases they export as.
const (
	KindInstant  byte = 'i' // a point in time
	KindComplete byte = 'X' // a span with start + duration
)

// Event is one timeline record. Name and Track should be static strings
// (or strings interned once at registration) so recording never
// allocates.
type Event struct {
	Name  string
	Track string
	At    sim.Time
	Dur   sim.Duration
	Arg   int64
	Kind  byte
}

// Timeline records structured spans and instant events in a bounded
// ring. It is disabled (a single branch per call, no work) until Enable
// is invoked — how a trace-capable build keeps golden-seed runs
// bit-identical with sampling off.
type Timeline struct {
	enabled bool
	ring    *Ring[Event]
}

// Enabled reports whether events are being recorded.
func (t *Timeline) Enabled() bool { return t.enabled }

// Enable starts recording into a ring of at least capacity events
// (rounded up to a power of two). When the ring fills, the oldest
// events are overwritten and counted as dropped.
func (t *Timeline) Enable(capacity int) {
	t.ring = NewRing[Event](capacity)
	t.enabled = true
}

// Instant records a point event on track at time at.
func (t *Timeline) Instant(name, track string, at sim.Time, arg int64) {
	if !t.enabled {
		return
	}
	t.ring.Push(Event{Name: name, Track: track, At: at, Arg: arg, Kind: KindInstant})
}

// Complete records a span that started at start and lasted dur.
func (t *Timeline) Complete(name, track string, start sim.Time, dur sim.Duration, arg int64) {
	if !t.enabled {
		return
	}
	t.ring.Push(Event{Name: name, Track: track, At: start, Dur: dur, Kind: KindComplete, Arg: arg})
}

// Len reports recorded events currently held.
func (t *Timeline) Len() int {
	if t.ring == nil {
		return 0
	}
	return t.ring.Len()
}

// Dropped reports events overwritten after the ring filled.
func (t *Timeline) Dropped() uint64 {
	if t.ring == nil {
		return 0
	}
	return t.ring.Dropped()
}

// Events returns the recorded events oldest-first.
func (t *Timeline) Events() []Event {
	if t.ring == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// writeJSONEvents emits the timeline's events as Chrome trace_event
// objects (without the surrounding array) for process id pid, preceded
// by process/thread metadata. first says whether the caller has emitted
// no array elements yet; the updated value is returned. Timestamps are
// simulated time in microseconds. Tracks map to thread ids in
// sorted-name order so output is deterministic.
func (t *Timeline) writeJSONEvents(w io.Writer, pid int, process string, first bool) bool {
	evs := t.Events()
	if len(evs) == 0 {
		return first
	}
	tracks := map[string]int{}
	var names []string
	for _, e := range evs {
		if _, ok := tracks[e.Track]; !ok {
			tracks[e.Track] = 0
			names = append(names, e.Track)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		tracks[n] = i + 1
	}
	comma := func() {
		if first {
			first = false
			return
		}
		io.WriteString(w, ",\n")
	}
	comma()
	fmt.Fprintf(w, `  {"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, process)
	for _, n := range names {
		comma()
		fmt.Fprintf(w, `  {"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tracks[n], n)
	}
	for _, e := range evs {
		comma()
		ts := float64(e.At) / 1e3
		switch e.Kind {
		case KindComplete:
			fmt.Fprintf(w, `  {"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"v":%d}}`,
				e.Name, pid, tracks[e.Track], ts, float64(e.Dur)/1e3, e.Arg)
		default:
			fmt.Fprintf(w, `  {"name":%q,"ph":"i","pid":%d,"tid":%d,"ts":%.3f,"s":"t","args":{"v":%d}}`,
				e.Name, pid, tracks[e.Track], ts, e.Arg)
		}
	}
	return first
}

// WriteJSON emits this timeline alone as a complete Chrome trace_event
// JSON document (the {"traceEvents": [...]} object form).
func (t *Timeline) WriteJSON(w io.Writer, process string) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	t.writeJSONEvents(w, 1, process, true)
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}
