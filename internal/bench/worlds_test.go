package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestWorlds runs every world of the registry as parallel subtests, the
// condition cmd/reproduce -j N runs them under, and holds each claim to its
// band; -v logs the ledger (measured, paper, signed distance). A drill
// (E19–E26) runs twice back to back, and its two digests must be identical:
// the simulation is a pure function of the seed, whatever runs beside it.
// A world that weighs the process heap runs alone, outside the parallel
// group. Under -short only the drills run.
func TestWorlds(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) { holdWorld(t, e.ID, Quick()) })
	}
}

// TestRatioCellDistance: a paper cell whose × is followed by text is a ratio
// to the arm the text names, so the ledger prints no distance; a bare ratio
// is measured as one and keeps its distance.
func TestRatioCellDistance(t *testing.T) {
	for _, c := range [][3]string{
		{"E20/doctor-on/p99-µs", "≤1.15× clean", "-"},
		{"E24/shared/mouse-p99-µs", "≤1.25× alone", "-"},
		{"E24/shared/recov-p99-µs", "≤1.25× alone", "-"},
		{"E8/mass-cold÷QP-cache", "≈3.3×", "+12.70"},
		{"E22/chan÷qp", "≥10×", "+6.00"},
	} {
		if row := (Claim{ID: c[0], Paper: c[1], Measured: 16}).String(); !strings.Contains(row, " "+c[2]+"  band") {
			t.Errorf("distance of %s, want %s: %s", c[0], c[2], row)
		}
	}
}

// Each panel of the fig7 and fig10 entries, and each drill, is also held
// by its own name. They share TestWorlds' runs.
func TestFig7LeftMixedStrategy(t *testing.T) { holdWorld(t, "fig7/E1", Quick()) }
func TestFig7MiddleOrdering(t *testing.T)    { holdWorld(t, "fig7/E2", Quick()) }
func TestTracingOverheadBand(t *testing.T)   { holdWorld(t, "fig7/E4", Quick()) }
func TestFig10Shape(t *testing.T)            { holdWorld(t, "fig10/E7", Quick()) }
func TestFragmentSweepRuns(t *testing.T)     { holdWorld(t, "fig10/A1", Quick()) }
func TestChaosDrill(t *testing.T)            { holdWorld(t, "robust", Quick()) }
func TestGrayhaul(t *testing.T)              { holdWorld(t, "gray", Quick()) }
func TestBlame(t *testing.T)                 { holdWorld(t, "blame", Quick()) }
func TestScaleWorld(t *testing.T)            { holdWorld(t, "scale", Quick()) }
func TestStorm(t *testing.T)                 { holdWorld(t, "storm/storm", Quick()) }
func TestStormBrownout(t *testing.T)         { holdWorld(t, "storm/brownout", Quick()) }
func TestTenants(t *testing.T)               { holdWorld(t, "tenants", Quick()) }
func TestUpgrade(t *testing.T)               { holdWorld(t, "upgrade", Quick()) }

// TestChaosDrillSeedSensitivity: another seed holds the whole robust bar
// (the recovery machinery is robust, not tuned to one lucky schedule).
func TestChaosDrillSeedSensitivity(t *testing.T) { holdWorld(t, "robust", Scale{Seed: 7}) }

// panelRun is one panel's run at one scale, shared by every test that
// holds it.
type panelRun struct {
	once   sync.Once
	res    Result
	second string // a drill's digest from a second, fresh run
}

var panelRuns sync.Map // "entry/panel seed full" → *panelRun

// heldRun is the run of entry e's panel p at sc, shared by every test that
// holds or reads it: one run per process, and for a drill a second, fresh
// one to compare digests with.
func heldRun(e Experiment, p Panel, sc Scale) *panelRun {
	v, _ := panelRuns.LoadOrStore(fmt.Sprint(e.ID, "/", p.ID, " ", sc.Seed, " ", sc.Full), &panelRun{})
	r := v.(*panelRun)
	r.once.Do(func() {
		r.res = p.Run(sc)
		if r.res.Digest != nil {
			r.second = strings.Join(p.Run(sc).Digest, "\n")
		}
	})
	return r
}

// lookup finds the registry entry path names and the panels of it path
// names: one ("fig7/E1"), or all of them ("fig7").
func lookup(t *testing.T, path string) (Experiment, []Panel) {
	id, panel, _ := strings.Cut(path, "/")
	reg := Experiments()
	i := slices.IndexFunc(reg, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("no entry %q", id)
	}
	panels := reg[i].Panels
	if panel != "" {
		panels = slices.DeleteFunc(slices.Clone(panels), func(p Panel) bool { return p.ID != panel })
		if len(panels) == 0 {
			t.Fatalf("%s: no panel %q", id, panel)
		}
	}
	return reg[i], panels
}

// holdWorld holds the claims of the entry or panel path names, run at sc.
func holdWorld(t *testing.T, path string, sc Scale) {
	e, panels := lookup(t, path)
	if testing.Short() && !e.drill {
		t.Skip("short mode: the world's digest is its tables")
	}
	if !e.Heap {
		t.Parallel()
	}
	for _, p := range panels {
		r := heldRun(e, p, sc)
		if first := strings.Join(r.res.Digest, "\n"); r.res.Digest != nil && first != r.second {
			t.Errorf("%s: second run diverges:\n--- first ---\n%s\n--- second ---\n%s", path, first, r.second)
		}
		for _, c := range r.res.Claims {
			t.Log(c)
			if !c.Holds() {
				t.Errorf("%s: claim %s outside its band: %v", path, c.ID, c)
			}
		}
	}
}
