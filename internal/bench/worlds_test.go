package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/worlds.golden from this tree")

const worldsGolden = "testdata/worlds.golden"

// TestWorlds runs every world of the registry as parallel subtests, the
// condition cmd/reproduce -j N runs them under, and holds each claim to its
// band; -v logs the ledger (measured, paper, signed distance). A drill
// (E19–E26) runs twice back to back, and its two digests must be identical:
// the simulation is a pure function of the seed, whatever runs beside it.
// A world that weighs the process heap runs alone, outside the parallel
// group. Under -short only the drills run. Each world that ran is then held
// to its line of testdata/worlds.golden (pinLines); -update rewrites the file.
func TestWorlds(t *testing.T) {
	t.Cleanup(func() { pinWorlds(t) })
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) { holdWorld(t, e.ID, Quick()) })
	}
}

// pinWorlds holds each world that ran to its line of worldsGolden: the id, a
// hash of its digest (of the rendered tables where it has no Digest, of the
// claims where it has neither), the events fired and the claim count. -update rewrites the file.
func pinWorlds(t *testing.T) {
	var got []string
	for _, e := range Experiments() {
		for _, p := range e.Panels {
			v, ok := panelRuns.Load(fmt.Sprint(e.ID, "/", p.ID, " ", Quick().Seed, " false"))
			if !ok {
				if *update {
					t.Fatal("-update needs every world: run TestWorlds without -short or a -run filter")
				}
				continue
			}
			r, digest := v.(*panelRun).res, v.(*panelRun).res.Digest
			for _, tb := range r.Tables {
				if r.Digest == nil {
					digest = append(digest, tb.String())
				}
			}
			for _, c := range r.Claims {
				if len(r.Tables)+len(r.Digest) == 0 {
					digest = append(digest, c.String()) // a gate that prints nothing: its claims are its outcome
				}
			}
			h := fnv.New64a()
			h.Write([]byte(strings.Join(digest, "\n")))
			got = append(got, fmt.Sprintf("%s%s %016x %d %d", e.ID, strings.TrimPrefix("/"+p.ID, "/"+e.ID), h.Sum64(), r.Fired, len(r.Claims)))
		}
	}
	if *update {
		if err := os.WriteFile(worldsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(worldsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(b), "\n")
	for _, line := range got {
		id, _, _ := strings.Cut(line, " ")
		i := slices.IndexFunc(want, func(w string) bool { return strings.HasPrefix(w, id+" ") })
		if i < 0 || want[i] != line {
			golden := "(no line)"
			if i >= 0 {
				golden = want[i]
			}
			t.Errorf("%s differs from %s (a declared re-baseline rewrites it with -update)\n  golden: %s\n  run:    %s", id, worldsGolden, golden, line)
			return
		}
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
func TestStorm(t *testing.T)                 { holdWorld(t, "storm/storm", Quick()) }
func TestStormBrownout(t *testing.T)         { holdWorld(t, "storm/brownout", Quick()) }
func TestTenants(t *testing.T)               { holdWorld(t, "tenants", Quick()) }
func TestUpgrade(t *testing.T)               { holdWorld(t, "upgrade", Quick()) }

// TestScaleWorld also caps E22's registered bytes at its 18 talking contexts'
// 512 KiB first regions plus two more: a 4 MiB region each would be 72 MiB.
func TestScaleWorld(t *testing.T) {
	holdWorld(t, "scale", Quick())
	e, p := lookup(t, "scale")
	if got := heldRun(e, p[0], Quick()).res.registered; got > 18*(512<<10)+1<<20 {
		t.Errorf("E22 smoke registers %d bytes, more than 10 MiB: a region registered ahead of demand", got)
	}
}

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
		r.res = p.run(sc)
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
