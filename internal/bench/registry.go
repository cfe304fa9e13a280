package bench

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"xrdma/internal/sim"
)

// Experiment is one entry of DESIGN.md's per-experiment index: a stable
// id (what cmd/reproduce -only matches), a title, and the panels it runs.
// Every panel builds its own Engine, Fabric and RNG from the Scale it is
// handed, so distinct experiments are fully isolated and safe to run on
// concurrent goroutines.
type Experiment struct {
	ID     string
	Title  string
	Panels []Panel
	// Heap marks a world that weighs the process heap (E22): whatever runs
	// beside it is weighed too, so it runs alone.
	Heap bool
	// drill marks a scripted drill (E19–E26), the worlds whose Result
	// carries their own Digest.
	drill bool
}

// Panel is one world of an entry: a figure's panel, a drill.
type Panel struct {
	ID  string
	Run func(sc Scale) Result
}

// Run runs the entry's panels in order and joins what they found.
func (e Experiment) Run(sc Scale) Result {
	var out Result
	for _, p := range e.Panels {
		r := p.run(sc)
		out.Tables = append(out.Tables, r.Tables...)
		out.Digest = append(out.Digest, r.Digest...)
		out.Claims = append(out.Claims, r.Claims...)
		out.Fired += r.Fired
	}
	return out
}

// run runs the panel and fills Result.Fired from every engine it created.
func (p Panel) run(sc Scale) Result {
	var engs []*sim.Engine
	sc.engines = &engs
	r := p.Run(sc)
	for _, eng := range engs {
		r.Fired += eng.Fired()
	}
	return r
}

// Result is one run of a world.
type Result struct {
	Tables []*Table // what cmd/reproduce prints
	// Digest is a drill's deterministic outcome; nil for every other
	// world, whose rendered tables are its digest.
	Digest     []string
	Claims     []Claim
	Fired      uint64 // events fired, summed over the world's engines
	registered int    // E22: bytes registered, summed over its NICs at the end
}

// Claim is one number or shape of the paper's evaluation held against a
// run. A shape (an ordering, a crossover) measures 1 when it holds and 0
// when it does not, with the band [1, 1].
type Claim struct {
	ID       string
	Paper    string  // the paper's value, as the table prints it
	Lo, Hi   float64 // Measured must fall in [Lo, Hi]
	Measured float64
	// Untested: the run cannot tell, because the arms the claim compares
	// against never showed what the paper reduces.
	Untested bool
}

// within is a claim on a measured value with the band [lo, hi]; above and
// below turn a bound strict.
func within(id, paper string, measured, lo, hi float64) Claim {
	return Claim{ID: id, Paper: paper, Lo: lo, Hi: hi, Measured: measured}
}

// shape is a claim that an ordering or crossover holds.
func shape(id, paper string, holds bool) Claim {
	c := within(id, paper, 0, 1, 1)
	if holds {
		c.Measured = 1
	}
	return c
}

func above(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
func below(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }

var inf = math.Inf(1)

// Holds reports whether the measurement falls in the band.
func (c Claim) Holds() bool { return c.Lo <= c.Measured && c.Measured <= c.Hi }

// String is the claim's ledger row: measured, the paper's value, the
// signed distance to it (when the paper gives a number in the measured
// unit) and the verdict.
func (c Claim) String() string {
	dist := "-"
	if lo, hi, ok := paperRange(c.Paper); ok {
		dist = fmt.Sprintf("%+.2f", c.Measured-min(max(c.Measured, lo), hi))
	}
	verdict := "ok"
	switch {
	case !c.Holds():
		verdict = "FAIL"
	case c.Untested:
		verdict = "untested"
	}
	return fmt.Sprintf("%-28s %12.2f  paper %-22s %10s  band [%s, %s]  %s",
		c.ID, c.Measured, c.Paper, dist, bound(c.Lo), bound(c.Hi), verdict)
}

// bound prints a band's end to four digits; a strict bound at zero
// (above(0), below(0)) prints as 0, like the one at 1 prints as 1.
func bound(x float64) string {
	if math.Abs(x) == math.SmallestNonzeroFloat64 {
		x = 0
	}
	return fmt.Sprintf("%.4g", x)
}

// paperRange reads the number a paper cell starts with ("38", "~100",
// "<2", "0 (RNR-free)", "≥10×"), or the range "a–b". A number that runs into
// a letter ("35.78M") is in another unit than the measurement, and a ratio
// followed by text ("≤1.15× clean") is relative to the arm the text names.
func paperRange(paper string) (lo, hi float64, ok bool) {
	lo, rest, ok := leadingFloat(strings.TrimLeft(paper, "~≈<≤>≥+ "))
	arm := strings.HasPrefix(rest, "×") && strings.TrimSpace(rest[len("×"):]) != ""
	if r, _ := utf8.DecodeRuneInString(rest); !ok || arm || unicode.IsLetter(r) {
		return 0, 0, false
	}
	hi = lo
	if r, isRange := strings.CutPrefix(rest, "–"); isRange {
		if h, _, ok := leadingFloat(r); ok {
			hi = h
		}
	}
	return lo, hi, true
}

func leadingFloat(s string) (float64, string, bool) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		i = len(s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	return v, s[i:], err == nil
}

// result is a world of one table.
func result(t Table, claims ...Claim) Result {
	return Result{Tables: []*Table{&t}, Claims: claims}
}

// world is an entry of one panel.
func world(id, title string, run func(Scale) Result) Experiment {
	return Experiment{ID: id, Title: title, Panels: []Panel{{ID: id, Run: run}}}
}

// drill is an entry of one scripted drill.
func drill(id, title string, run func(Scale) Result) Experiment {
	e := world(id, title, run)
	e.drill = true
	return e
}

// Experiments returns the registry in canonical print order — the order
// cmd/reproduce emits tables regardless of how many workers ran them.
func Experiments() []Experiment {
	scale := drill("scale", "Fitting the 4000-node world: QP mux, flyweight channels, heap budget", ScaleWorld)
	scale.Heap = true
	storm := drill("storm", "Storm-style KV: one-sided speculative reads vs RPC", Storm)
	storm.Panels = append(storm.Panels, Panel{ID: "brownout", Run: StormBrownout})
	fig12 := func(app string) Panel {
		return Panel{ID: app, Run: func(sc Scale) Result { return Fig12AntiJitter(sc, app) }}
	}
	return []Experiment{
		{ID: "fig7", Title: "Latency/throughput vs baselines + tracing overhead", Panels: []Panel{
			{ID: "E1", Run: Fig7Left}, {ID: "E2", Run: Fig7Middle}, {ID: "E3", Run: Fig7Right}, {ID: "E4", Run: TracingOverhead}}},
		world("establish", "Connection establishment (QP cache)", Establishment),
		world("fig8", "ESSD ramp", Fig8EssdRamp),
		world("fig9", "RNR NAK counter", Fig9RNRCounter),
		{ID: "fig10", Title: "Flow control + fragment sweep", Panels: []Panel{
			{ID: "E7", Run: Fig10FlowControl}, {ID: "A1", Run: FragmentSweep}}},
		world("fig11", "Online upgrade", Fig11OnlineUpgrade),
		{ID: "fig12", Title: "Anti-jitter (ESSD, X-DB)", Panels: []Panel{fig12("ESSD"), fig12("X-DB")}},
		world("qpscale", "QP scaling", QPScaling),
		world("srq", "SRQ trade-off", SRQTradeoff),
		world("memmodes", "Memory registration modes", MemoryModes),
		world("footprint", "Mixed-deployment footprint", MixedFootprint),
		world("peak", "Peak stress", PeakStress),
		world("fig3", "Diurnal load", Fig3Diurnal),
		drill("robust", "Chaos drill: fault classes, recovery and fallback", ChaosDrill),
		drill("gray", "Gray failure: path doctor, ECMP re-pathing", Grayhaul),
		drill("blame", "Blame attribution: injected cause vs top-blamed stage", BlameAttribution),
		scale,
		storm,
		drill("tenants", "Multi-tenant isolation: QoS scheduling, bounded memory, graceful shed", Tenants),
		drill("upgrade", "Hot upgrade: version negotiation, graceful drain, rolling restart under live traffic", Upgrade),
		drill("fleet", "Fleet diagnosis: cross-node anomaly detection, correlation, root-cause reports", func(sc Scale) Result {
			r := Fleet(sc)
			return Result{Tables: []*Table{&r.Table_}, Digest: r.Lines}
		}),
		world("loc", "Lines-of-code comparison", LoCComparison),
	}
}

// Select returns the entries only names (cmd/reproduce -only: ids joined
// by commas) in registry order, or every entry when it names none. An id
// the registry lacks is an error that lists the valid ids.
func Select(only string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	var sel []Experiment
	var ids []string
	for _, e := range Experiments() {
		if len(want) == 0 || want[e.ID] {
			sel = append(sel, e)
		}
		ids = append(ids, e.ID)
	}
	unknown := slices.DeleteFunc(slices.Sorted(maps.Keys(want)), func(id string) bool { return slices.Contains(ids, id) })
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id(s): %s\nvalid ids: %s", strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	return sel, nil
}
