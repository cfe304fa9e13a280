package bench

import (
	"strings"
	"sync"
	"testing"
)

// TestFleet is E26's acceptance bar, scored across seeds: a seed passes when
// every injected fault class is diagnosed with exactly the expected incident
// class AND culprit, the transient incidents close after their faults heal
// while the node-down one stays open, the clean warm-up opens nothing, and
// nothing opens that no fault explains (FleetResult.Misses). One seed passing
// is luck either way, so the test holds the count of seeds 1–16 that pass to
// the floor measured when the scorecard landed. A change that moves the floor
// says so the way a re-baseline does. CI runs seeds 1–64 (fleetsweep_test.go).
func TestFleet(t *testing.T) { checkFleetSeeds(t, 16, 11) }

// checkFleetSeeds scores seeds 1..n and fails when fewer than floor pass.
func checkFleetSeeds(t *testing.T, n, floor int) {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	s := FleetScorecard(seeds)
	t.Logf("\n%s", s.Table_.String())
	for i, miss := range s.Misses {
		if len(miss) > 0 {
			t.Logf("seed %d: %s", seeds[i], strings.Join(miss, "; "))
		}
	}
	if s.Pass < floor {
		t.Errorf("%d of %d seeds meet E26's bar, floor %d", s.Pass, n, floor)
	}
}

// TestFleetDeterministic: the full diagnosis digest — fault log, chaos
// log, incident transitions — is bit-identical run-to-run and across
// concurrent goroutines (each run owns its engine; nothing leaks).
func TestFleetDeterministic(t *testing.T) {
	want := strings.Join(Fleet(Quick()).Digest(), "\n")
	if want == "" {
		t.Fatal("empty digest")
	}
	if got := strings.Join(Fleet(Quick()).Digest(), "\n"); got != want {
		t.Fatalf("sequential rerun diverged:\n--- first\n%s\n--- second\n%s", want, got)
	}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = strings.Join(Fleet(Quick()).Digest(), "\n")
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent run %d diverged from sequential digest", i)
		}
	}
}
