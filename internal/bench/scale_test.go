package bench

import (
	"strings"
	"testing"
)

// TestScaleWorld is the E22 acceptance gate: the multi-pod world holds
// ≥10× more live channels than wire QPs, conserves every message, keeps
// idle descriptors un-dialed, and fits the heap budget.
func TestScaleWorld(t *testing.T) {
	r := ScaleWorld(Quick())
	if r.Pods < 2 {
		t.Errorf("smoke world has %d pods, want multi-pod", r.Pods)
	}
	if r.MuxRatio < 10 {
		t.Errorf("channel/QP ratio %.1f, want >= 10 (chans=%d qps=%d)", r.MuxRatio, r.ActiveChans, r.WireQPs)
	}
	if r.Lost != 0 {
		t.Errorf("%d of %d requests lost", r.Lost, r.Sent)
	}
	if r.Dups != 0 {
		t.Errorf("%d duplicated deliveries (exactly-once violated)", r.Dups)
	}
	if r.SendErrs != 0 {
		t.Errorf("%d sends rejected", r.SendErrs)
	}
	if r.Resps != r.Sent {
		t.Errorf("%d responses for %d requests", r.Resps, r.Sent)
	}
	if r.Sent < 1000 {
		t.Errorf("only %d requests sent — load generator broken", r.Sent)
	}
	if r.IdleAttach != 0 {
		t.Errorf("%d idle descriptors attached — lazy establishment broken", r.IdleAttach)
	}
	if !r.HeapOK {
		t.Errorf("heap %d MiB exceeds budget %d MiB", r.HeapBytes>>20, r.HeapBudget>>20)
	}
	// 320 stacks and the SRQ blocks of the contexts that talk cannot weigh
	// this little: a reading under the floor weighed a world the collector
	// had already freed.
	const floor = 8 << 20
	if r.HeapBytes <= floor {
		t.Errorf("heap %d MiB, under the %d MiB floor: the world was not live when it was measured", r.HeapBytes>>20, floor>>20)
	}
	t.Logf("heap %.1f MiB (budget %d MiB)", float64(r.HeapBytes)/(1<<20), r.HeapBudget>>20)
}

// TestScaleDeterministic asserts the digest is a pure function of the
// seed: bit-identical across sequential reruns and across concurrent
// goroutines (the -j 1 vs -j 8 guarantee of cmd/reproduce).
func TestScaleDeterministic(t *testing.T) {
	base := strings.Join(ScaleWorld(Quick()).Digest(), "\n")
	again := strings.Join(ScaleWorld(Quick()).Digest(), "\n")
	if base != again {
		t.Fatalf("sequential reruns diverge:\n--- first ---\n%s\n--- second ---\n%s", base, again)
	}
	results := make([]string, 4)
	done := make(chan int)
	for i := range results {
		go func(i int) {
			results[i] = strings.Join(ScaleWorld(Quick()).Digest(), "\n")
			done <- i
		}(i)
	}
	for range results {
		<-done
	}
	for i, d := range results {
		if d != base {
			t.Fatalf("concurrent run %d diverges from sequential baseline:\n%s\nvs\n%s", i, d, base)
		}
	}
}
