package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Experiment is one entry of DESIGN.md's per-experiment index: a stable
// id (what cmd/reproduce -only matches), a title, and a Run function
// returning what the world found. Every Run builds its own Engine, Fabric
// and RNG from the Scale it is handed, so distinct experiments are fully
// isolated and safe to run on concurrent goroutines.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale) Result
	// Heap marks a world that weighs the process heap (E22): whatever runs
	// beside it is weighed too, so it runs alone.
	Heap bool
	// drill marks a scripted drill (E19–E26), the worlds whose Result
	// carries their own Digest.
	drill bool
}

// Result is one run of a world.
type Result struct {
	Tables []*Table // what cmd/reproduce prints
	// Digest is a drill's deterministic outcome; nil for every other
	// world, whose rendered tables are its digest.
	Digest []string
	Claims []Claim
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
// "<2", "0 (RNR-free)"), or the range "a–b". A number that runs into a
// letter ("35.78M") is in another unit than the measurement.
func paperRange(paper string) (lo, hi float64, ok bool) {
	lo, rest, ok := leadingFloat(strings.TrimLeft(paper, "~≈<≤+ "))
	if r, _ := utf8.DecodeRuneInString(rest); !ok || unicode.IsLetter(r) {
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

// merge joins the worlds one registry entry runs, in order.
func merge(rs ...Result) Result {
	var out Result
	for _, r := range rs {
		out.Tables = append(out.Tables, r.Tables...)
		out.Claims = append(out.Claims, r.Claims...)
	}
	return out
}

// drillEntry registers a scripted drill: its own Digest, its one table.
func drillEntry[R interface{ Digest() []string }](id, title string, run func(Scale) R, table func(R) Table) Experiment {
	return Experiment{ID: id, Title: title, drill: true, Run: func(sc Scale) Result {
		r := run(sc)
		t := table(r)
		return Result{Tables: []*Table{&t}, Digest: r.Digest()}
	}}
}

// Experiments returns the registry in canonical print order — the order
// cmd/reproduce emits tables regardless of how many workers ran them.
func Experiments() []Experiment {
	scale := drillEntry("scale", "Fitting the 4000-node world: QP mux, flyweight channels, heap budget", ScaleWorld,
		func(r *ScaleResult) Table { return r.Table_ })
	scale.Heap = true
	return []Experiment{
		{ID: "fig7", Title: "Latency/throughput vs baselines + tracing overhead", Run: func(sc Scale) Result {
			return merge(Fig7Left(sc), Fig7Middle(sc), Fig7Right(sc), TracingOverhead(sc))
		}},
		{ID: "establish", Title: "Connection establishment (QP cache)", Run: Establishment},
		{ID: "fig8", Title: "ESSD ramp", Run: Fig8EssdRamp},
		{ID: "fig9", Title: "RNR NAK counter", Run: Fig9RNRCounter},
		{ID: "fig10", Title: "Flow control + fragment sweep", Run: func(sc Scale) Result {
			return merge(Fig10FlowControl(sc), FragmentSweep(sc))
		}},
		{ID: "fig11", Title: "Online upgrade", Run: Fig11OnlineUpgrade},
		{ID: "fig12", Title: "Anti-jitter (ESSD, X-DB)", Run: func(sc Scale) Result {
			return merge(Fig12AntiJitter(sc, "ESSD"), Fig12AntiJitter(sc, "X-DB"))
		}},
		{ID: "qpscale", Title: "QP scaling", Run: QPScaling},
		{ID: "srq", Title: "SRQ trade-off", Run: SRQTradeoff},
		{ID: "memmodes", Title: "Memory registration modes", Run: MemoryModes},
		{ID: "footprint", Title: "Mixed-deployment footprint", Run: MixedFootprint},
		{ID: "peak", Title: "Peak stress", Run: PeakStress},
		{ID: "fig3", Title: "Diurnal load", Run: Fig3Diurnal},
		drillEntry("robust", "Chaos drill: fault classes, recovery and fallback", ChaosDrill,
			func(r *ChaosDrillResult) Table { return r.Table_ }),
		drillEntry("gray", "Gray failure: path doctor, ECMP re-pathing, budgeted retries", Grayhaul,
			func(r *GrayhaulResult) Table { return r.Table_ }),
		drillEntry("blame", "Blame attribution: injected cause vs top-blamed stage", BlameAttribution,
			func(r *BlameResult) Table { return r.Table_ }),
		scale,
		drillEntry("storm", "Storm-style KV: one-sided speculative reads vs RPC", Storm,
			func(r *StormResult) Table { return r.Table_ }),
		drillEntry("tenants", "Multi-tenant isolation: QoS scheduling, bounded memory, graceful shed", Tenants,
			func(r *TenantsResult) Table { return r.Table_ }),
		drillEntry("upgrade", "Hot upgrade: version negotiation, graceful drain, rolling restart under live traffic", Upgrade,
			func(r *UpgradeResult) Table { return r.Table_ }),
		drillEntry("fleet", "Fleet diagnosis: cross-node anomaly detection, correlation, root-cause reports", Fleet,
			func(r *FleetResult) Table { return r.Table_ }),
		{ID: "loc", Title: "Lines-of-code comparison", Run: LoCComparison},
	}
}
