package bench

import (
	"testing"

	"xrdma/internal/sim"
)

// TestGrayhaul is the gray-failure acceptance gate (E20): under a
// permanent spine brownout the doctor re-paths the channel back to a
// clean tail, while the doctor-off arm stays visibly degraded — and in
// no arm is a single request lost, duplicated or rejected.
func TestGrayhaul(t *testing.T) {
	r := Grayhaul(Quick())
	for _, a := range []*GrayArm{r.Clean, r.Off, r.On} {
		if a.Dups != 0 {
			t.Errorf("%s: %d duplicated deliveries (exactly-once violated)", a.Name, a.Dups)
		}
		if a.Lost != 0 {
			t.Errorf("%s: %d lost requests of %d sent", a.Name, a.Lost, a.Sent)
		}
		if a.SendErrs != 0 {
			t.Errorf("%s: %d sends rejected — the doctor escalated a healable path", a.Name, a.SendErrs)
		}
		if a.Resps != a.Sent {
			t.Errorf("%s: %d responses for %d requests", a.Name, a.Resps, a.Sent)
		}
		if a.Sent < 100 {
			t.Errorf("%s: only %d requests sent — load generator broken", a.Name, a.Sent)
		}
	}
	if r.Clean.Rehashes != 0 {
		t.Errorf("clean arm rotated %d flow labels with no fault injected", r.Clean.Rehashes)
	}
	// The gray failure must actually be gray: doctor-off degraded but alive.
	if r.Off.P99 < 2*r.Clean.P99 {
		t.Errorf("doctor-off p99 %v not degraded vs clean %v — brownout not biting", r.Off.P99, r.Clean.P99)
	}
	if r.Off.Rehashes != 0 {
		t.Errorf("doctor-off rotated %d flow labels with the doctor disabled", r.Off.Rehashes)
	}
	// The cure: doctor-on re-paths and the tail returns to ~baseline.
	if r.On.Rehashes < 1 {
		t.Errorf("doctor-on never rotated a flow label")
	}
	if r.On.FirstRehash <= 0 || r.On.FirstRehash > 60*sim.Millisecond {
		t.Errorf("doctor-on first rehash %v after fault, want within (0, 60ms]", r.On.FirstRehash)
	}
	if limit := r.Clean.P99 * 115 / 100; r.On.P99 > limit {
		t.Errorf("doctor-on p99 %v exceeds 1.15× clean (%v) — re-pathing did not restore the tail", r.On.P99, limit)
	}
}
