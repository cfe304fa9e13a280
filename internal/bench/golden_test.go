package bench

import (
	"sync"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Golden-seed determinism anchors. These exact numbers were captured on
// the container/heap scheduler before the 4-ary-heap/pooling rewrite and
// must never drift: the simulation is run-to-complete with a total event
// order of (time, sequence), so any change to these values means the
// kernel reordered events or a model drew differently from its RNG —
// i.e. the experiments in REPRODUCE.md are no longer comparable across
// versions. Update them only for a deliberate, documented model change.
// goldenFiredCount was 4476 until the hybrid poller stopped firing idle spins
// as engine events (DESIGN §9.5, EXPERIMENTS.md P6), and 3269 until a fabric
// hop became one event (DESIGN §6.1, EXPERIMENTS.md P7), and 1834 until the
// memory cache registered regions sized to demand (DESIGN §14.4, EXPERIMENTS.md
// P11: a 512 KiB first region registers sooner); RTT and Fig 9 did not move
// any of those times.
const (
	goldenSeed       = 42
	goldenPingSize   = 512
	goldenPingCount  = 50
	goldenFiredCount = 1822
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
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = metricsDigest()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("worker %d digest diverged from sequential run:\n--- want ---\n%s--- got ---\n%s", i, want, g)
		}
	}
}
