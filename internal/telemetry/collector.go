package telemetry

import (
	"io"
	"sort"
	"sync"

	"xrdma/internal/sim"
)

// DefaultTraceCap bounds each observed engine's timeline ring. A full
// reproduce run creates dozens of engines and a busy engine can emit an
// event per message hop, so rings are truncated at this cap (oldest
// events overwritten, drop count reported) rather than growing into a
// multi-gigabyte timeline.
const DefaultTraceCap = 1 << 16

// Observation pairs an engine and its telemetry Set with the experiment
// label it was created under.
type Observation struct {
	Label  string
	Engine *sim.Engine
	Set    *Set
}

// Collector gathers the telemetry Sets of every engine an experiment
// run creates. Observe is safe to call from concurrent `-j` workers;
// everything it collects is read only after the run completes.
type Collector struct {
	// TraceCap, when positive, enables each observed engine's timeline
	// with a ring of this capacity.
	TraceCap int

	mu  sync.Mutex
	obs []Observation
}

// Observe registers an engine under label. Matches the bench.Scale
// Observe hook signature; call it right after creating an engine,
// before the workload runs, so the timeline catches everything.
func (c *Collector) Observe(eng *sim.Engine, label string) {
	s := For(eng)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.TraceCap > 0 && !s.Trace.Enabled() {
		s.Trace.Enable(c.TraceCap)
	}
	c.obs = append(c.obs, Observation{Label: label, Engine: eng, Set: s})
}

// Observations returns the collected sets sorted by label, so output
// order is independent of `-j` scheduling.
func (c *Collector) Observations() []Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Observation, len(c.obs))
	copy(out, c.obs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// WriteTrace merges every observed timeline into one Chrome trace_event
// JSON document: one pid per observation, process_name metadata set to
// its label. Load the file in chrome://tracing or Perfetto.
func (c *Collector) WriteTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	for i, o := range c.Observations() {
		first = o.Set.Trace.writeJSONEvents(w, i+1, o.Label, first)
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}
