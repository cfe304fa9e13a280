package main

import (
	"slices"
	"strings"
	"testing"

	"xrdma/internal/bench"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// observed runs world at the registry's seed with observe (nil: none) and
// returns the digests it found and, when observe is set, the Fired count
// of every engine it built.
func observed(t *testing.T, world string, observe func(*sim.Engine, string)) (digest []string, fired []uint64) {
	t.Helper()
	var engs []*sim.Engine
	hook := observe
	if observe != nil {
		hook = func(eng *sim.Engine, label string) {
			engs = append(engs, eng)
			observe(eng, label)
		}
	}
	res, err := view(world, 42, hook)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		digest = append(digest, r.Digest...)
	}
	for _, eng := range engs {
		fired = append(fired, eng.Fired())
	}
	return digest, fired
}

// TestViewerLeavesTheWorldAlone: the viewer's hook only collects engines and
// its render only reads, so E25 runs to the same digest with it as without
// any hook, and to the same event count as under a hook that only records.
func TestViewerLeavesTheWorldAlone(t *testing.T) {
	plain, _ := observed(t, "upgrade", nil)
	_, bare := observed(t, "upgrade", func(*sim.Engine, string) {})
	col := &telemetry.Collector{}
	digest, fired := observed(t, "upgrade", col.Observe)
	if len(plain) == 0 || !slices.Equal(digest, plain) {
		t.Errorf("digest moved under the viewer:\n%s\nvs\n%s", strings.Join(digest, "\n"), strings.Join(plain, "\n"))
	}
	var out strings.Builder
	for _, ob := range col.Observations() {
		render(&out, ob)
	}
	if after := col.Observations()[0].Engine.Fired(); !slices.Equal(fired, bare) || after != fired[0] {
		t.Errorf("Fired %v under the viewer (%d after render), %v under a bare hook", fired, after, bare)
	}
}

// TestUpgradeRender: E25's render carries the rolling upgrade — a channel
// that settled protocol v2, and the drain of every node in the flight dumps
// (each node is back in service when the drill ends, so the DRAIN column
// reads serving).
func TestUpgradeRender(t *testing.T) {
	col := &telemetry.Collector{}
	observed(t, "upgrade", col.Observe)
	var out strings.Builder
	for _, ob := range col.Observations() {
		render(&out, ob)
	}
	ver, drain := -1, -1
	v2 := false
	drained := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "QPN":
			ver, drain = slices.Index(f, "VER"), slices.Index(f, "DRAIN")
		case ver > 0 && len(f) == 20: // a channel row
			if f[ver] == "2" && f[drain] == "serving" {
				v2 = true
			}
		case len(f) >= 3 && f[1] == "drain":
			drained[f[2]] = true
		}
	}
	if !v2 {
		t.Errorf("no channel row settled VER 2:\n%s", out.String())
	}
	for _, n := range []string{"node=0", "node=1", "node=2", "node=3"} {
		if !drained[n] {
			t.Errorf("no drain flight event for %s", n)
		}
	}
}

// TestUnknownWorld: -world takes the registry's ids and refuses others with
// bench.Select's error, which lists the valid ones.
func TestUnknownWorld(t *testing.T) {
	_, want := bench.Select("nosuch")
	if _, err := view("nosuch", 42, nil); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("view(nosuch) = %v, want %v", err, want)
	}
}
