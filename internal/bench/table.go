// Package bench regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment is a pure function of a Scale (quick
// for tests, full for cmd/reproduce) returning raw numbers plus a
// rendered, paper-style table; the package's tests assert the *shapes*
// the paper reports — orderings, ratios, crossovers — rather than
// absolute microseconds, since the substrate is a simulator rather than
// the authors' testbed.
package bench

import (
	"fmt"
	"strings"

	"xrdma/internal/cluster"
	"xrdma/internal/sim"
)

// Scale selects experiment sizing.
type Scale struct {
	// Full runs closer to paper scale (more nodes, longer horizon).
	Full bool
	// Seed drives all randomness.
	Seed uint64
	// Observe, when non-nil, is called once per simulation engine an
	// experiment creates, before the workload runs. cmd/reproduce uses it
	// to attach the telemetry collector (metrics snapshots + timeline
	// capture) to every world without the experiments knowing about it.
	Observe func(eng *sim.Engine, label string)
	// engines collects every engine the world creates, for Result.Fired.
	engines *[]*sim.Engine
}

// observe invokes the Observe hook if one is installed.
func (sc Scale) observe(eng *sim.Engine, label string) {
	if sc.engines != nil {
		*sc.engines = append(*sc.engines, eng)
	}
	if sc.Observe != nil {
		sc.Observe(eng, label)
	}
}

// cluster builds a world at the scale's seed and hands its engine to the
// observers under label.
func (sc Scale) cluster(label string, o cluster.Options) *cluster.Cluster {
	o.Seed = sc.Seed
	c := cluster.New(o)
	sc.observe(c.Eng, label)
	return c
}

// every calls fn once a period, the first call one period from now, until
// stop has passed since now. The ticks are background events.
func every(eng *sim.Engine, period, stop sim.Duration, fn func()) {
	start := eng.Now()
	var tick func()
	tick = func() {
		if eng.Now().Sub(start) >= stop {
			return
		}
		fn()
		eng.AfterBg(period, tick)
	}
	eng.AfterBg(period, tick)
}

// bursts drives an open-loop bursty sender from now while live holds: a
// burst of lo+rng.Intn(span) sends, then a gap drawn from rng.Exp(mean).
func bursts(eng *sim.Engine, rng *sim.RNG, lo, span int, mean sim.Duration, live func() bool, send func()) {
	var burst func()
	burst = func() {
		if !live() {
			return
		}
		for n := lo + rng.Intn(span); n > 0; n-- {
			send()
		}
		eng.AfterBg(rng.Exp(mean), burst)
	}
	burst()
}

// pick sizes a world: quick at the test scale, full under -full.
func pick[T any](sc Scale, quick, full T) T {
	if sc.Full {
		return full
	}
	return quick
}

// Quick is the default test/bench scale.
func Quick() Scale { return Scale{Seed: 42} }

// FullScale is used by cmd/reproduce -full.
func FullScale() Scale { return Scale{Full: true, Seed: 42} }

// Table is a rendered experiment result.
type Table struct {
	ID     string // experiment id from DESIGN.md (e.g. "E7/Fig10")
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of formatted cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row, formatting each value with %v / %.2f as fits.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note records a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
