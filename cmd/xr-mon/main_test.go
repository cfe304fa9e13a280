package main

import (
	"slices"
	"strings"
	"testing"

	"xrdma/internal/bench"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrmon"
)

// fleet runs E26 at the registry's seed under observe and returns its digest
// and the Fired count of its engine.
func fleet(t *testing.T, observe func(*sim.Engine, string)) ([]string, uint64, *sim.Engine) {
	t.Helper()
	var eng *sim.Engine
	res, err := view("fleet", 42, func(e *sim.Engine, label string) {
		eng = e
		observe(e, label)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Digest, eng.Fired(), eng
}

// TestWatchLeavesTheWorldAlone: -watch installs a transition callback and
// schedules nothing, so E26 runs to the same digest and event count with it
// as under a hook that only records the engine — and every open it printed
// live is a line of the final incident log.
func TestWatchLeavesTheWorldAlone(t *testing.T) {
	plain, plainFired, _ := fleet(t, func(*sim.Engine, string) {})
	var live strings.Builder
	digest, fired, eng := fleet(t, watchHook(&live, &telemetry.Collector{}))
	if !slices.Equal(digest, plain) || fired != plainFired {
		t.Errorf("E26 moved under -watch: Fired %d vs %d, digest\n%s\nvs\n%s",
			fired, plainFired, strings.Join(digest, "\n"), strings.Join(plain, "\n"))
	}
	log := xrmon.For(eng).Log()
	opens := 0
	for _, line := range strings.Split(live.String(), "\n") {
		_, tr, ok := strings.Cut(line, "fleet/world: ")
		if !ok || !strings.Contains(tr, " open ") {
			continue
		}
		opens++
		if !slices.Contains(log, tr) {
			t.Errorf("live open %q is not in the incident log:\n%s", tr, strings.Join(log, "\n"))
		}
	}
	if opens == 0 {
		t.Errorf("-watch printed no open:\n%s", live.String())
	}
	var out strings.Builder
	render(&out, telemetry.Observation{Label: "fleet/world", Engine: eng, Set: telemetry.For(eng)}, true)
	for _, want := range []string{"incident log:", "open class=node-down culprit=node9", "chaos log:", "node.crash 9", "xrmon_"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render lacks %q:\n%s", want, out.String())
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
