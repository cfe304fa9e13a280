package bench

import (
	"sync"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Golden-seed determinism anchors: the simulation is run-to-complete with
// a total event order of (time, sequence), so a change to one of these means
// the kernel reordered events or a model drew differently from its RNG.
// Update them only for a deliberate, documented model change; git log holds
// each re-baseline of goldenFiredCount (RTT and Fig 9 never moved).
const (
	goldenSeed       = 42
	goldenPingSize   = 512
	goldenPingCount  = 50
	goldenFiredCount = 1453
	goldenMeanRTT    = 7165 * sim.Nanosecond
	goldenFig9Raw    = 1297.0
	goldenFig9XRDMA  = 0.0
)

func TestGoldenSeedDeterminism(t *testing.T) {
	f := newPingFixture(Scale{Seed: goldenSeed}, "golden", nil)
	rtt := f.rtt(goldenPingSize, goldenPingCount)
	if rtt != goldenMeanRTT {
		t.Errorf("mean RTT for seed=%d: got %v, want %v", goldenSeed, rtt, goldenMeanRTT)
	}
	if fired := f.c.Eng.Fired(); fired != goldenFiredCount {
		t.Errorf("Engine.Fired() for seed=%d: got %d, want %d", goldenSeed, fired, goldenFiredCount)
	}
}

func TestGoldenSeedFig9(t *testing.T) {
	got := map[string]float64{}
	e, panels := lookup(t, "fig9")
	for _, c := range heldRun(e, panels[0], Quick()).res.Claims {
		got[c.ID] = c.Measured
	}
	if raw := got["E6/raw-RNR/s"]; raw != goldenFig9Raw {
		t.Errorf("Fig9 raw RNR/s: got %v, want %v", raw, goldenFig9Raw)
	}
	if xr := got["E6/X-RDMA-RNR/s"]; xr != goldenFig9XRDMA {
		t.Errorf("Fig9 X-RDMA RNR/s: got %v, want %v", xr, goldenFig9XRDMA)
	}
}

// Re-running the same seed twice in one process must be bit-identical:
// engine-keyed pools and free-lists must not let one run's state leak
// into the next.
func TestGoldenSeedRepeatable(t *testing.T) {
	a := newPingFixture(Scale{Seed: goldenSeed}, "golden", nil)
	rttA, firedA := a.rtt(goldenPingSize, goldenPingCount), a.c.Eng.Fired()
	b := newPingFixture(Scale{Seed: goldenSeed}, "golden", nil)
	rttB, firedB := b.rtt(goldenPingSize, goldenPingCount), b.c.Eng.Fired()
	if rttA != rttB || firedA != firedB {
		t.Errorf("same seed diverged: rtt %v vs %v, fired %d vs %d", rttA, rttB, firedA, firedB)
	}
}

// metricsDigest runs the golden ping workload and returns the full metric
// registry rendered as sorted name=value lines.
func metricsDigest() string {
	f := newPingFixture(Scale{Seed: goldenSeed}, "golden", nil)
	f.rtt(goldenPingSize, goldenPingCount)
	return telemetry.For(f.c.Eng).Reg.Digest()
}

// The telemetry registry is part of the determinism contract: the digest
// of every metric after the golden workload must be bit-identical whether
// experiments run sequentially or concurrently (cmd/reproduce -j N keys
// each engine's registry off the engine, so runs share nothing).
func TestGoldenMetricsDigestAcrossParallelism(t *testing.T) {
	want := metricsDigest()
	if want == "" {
		t.Fatal("empty metrics digest — no metrics registered")
	}
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = metricsDigest() }()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("worker %d digest diverged from sequential run:\n--- want ---\n%s--- got ---\n%s", i, want, g)
		}
	}
}
