package bench

import (
	"strings"
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
		t.Run(e.ID, func(t *testing.T) { holdWorld(t, e) })
	}
}

// Each panel the fig7 and fig10 entries merge also runs alone, by its name.
func TestFig7LeftMixedStrategy(t *testing.T) { holdWorld(t, Experiment{ID: "E1", Run: Fig7Left}) }
func TestFig7MiddleOrdering(t *testing.T)    { holdWorld(t, Experiment{ID: "E2", Run: Fig7Middle}) }
func TestTracingOverheadBand(t *testing.T)   { holdWorld(t, Experiment{ID: "E4", Run: TracingOverhead}) }
func TestFig10Shape(t *testing.T)            { holdWorld(t, Experiment{ID: "E7", Run: Fig10FlowControl}) }
func TestFragmentSweepRuns(t *testing.T)     { holdWorld(t, Experiment{ID: "A1", Run: FragmentSweep}) }

func holdWorld(t *testing.T, e Experiment) {
	if testing.Short() && !e.drill {
		t.Skip("short mode: the world's digest is its tables")
	}
	if !e.Heap {
		t.Parallel()
	}
	res := e.Run(Quick())
	if res.Digest != nil {
		first, second := strings.Join(res.Digest, "\n"), strings.Join(e.Run(Quick()).Digest, "\n")
		if first != second {
			t.Errorf("%s: second run diverges:\n--- first ---\n%s\n--- second ---\n%s", e.ID, first, second)
		}
	}
	for _, c := range res.Claims {
		t.Log(c)
		if !c.Holds() {
			t.Errorf("%s: claim %s outside its band: %v", e.ID, c.ID, c)
		}
	}
}
