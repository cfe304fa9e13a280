package bench

import (
	"testing"

	"xrdma/internal/xrdma"
)

// TestChaosDrill is the robustness acceptance gate: every transient fault
// class ends back on RDMA, the permanent class ends on the Mock fallback,
// and no class loses or duplicates a single message.
func TestChaosDrill(t *testing.T) {
	r := ChaosDrill(Quick())
	if len(r.Classes) != 6 {
		t.Fatalf("expected 6 fault classes, got %d", len(r.Classes))
	}
	for _, cl := range r.Classes {
		if cl.Final != cl.Want {
			t.Errorf("%s: final health %v, want %v (timeline: %v)", cl.Name, cl.Final, cl.Want, cl.Timeline)
		}
		if cl.Dups != 0 {
			t.Errorf("%s: %d duplicated deliveries (exactly-once violated)", cl.Name, cl.Dups)
		}
		if cl.Lost != 0 {
			t.Errorf("%s: %d lost messages of %d sent", cl.Name, cl.Lost, cl.Sent)
		}
		if cl.SendErrs != 0 {
			t.Errorf("%s: %d sends rejected — channel died", cl.Name, cl.SendErrs)
		}
		if cl.Resps != cl.Sent {
			t.Errorf("%s: %d responses for %d requests", cl.Name, cl.Resps, cl.Sent)
		}
		if cl.Sent < 100 {
			t.Errorf("%s: only %d messages sent — load generator broken", cl.Name, cl.Sent)
		}
	}
	// The faults must actually have perturbed the channel somewhere: the
	// drill is vacuous if no class ever left Healthy.
	perturbed := 0
	for _, cl := range r.Classes {
		if len(cl.Timeline) > 0 {
			perturbed++
		}
	}
	if perturbed < 3 {
		t.Errorf("only %d classes perturbed the channel — faults not biting", perturbed)
	}
	// The ECMP control must ride through a single uplink loss untouched.
	if ec := r.Classes[0]; len(ec.Timeline) != 0 {
		t.Errorf("ecmp-reroute: channel perturbed despite redundant uplink: %v", ec.Timeline)
	}
}

// TestChaosDrillSeedSensitivity: a different seed must still satisfy the
// acceptance bar (the recovery machinery is robust, not tuned to one
// lucky schedule).
func TestChaosDrillSeedSensitivity(t *testing.T) {
	r := ChaosDrill(Scale{Seed: 7})
	for _, cl := range r.Classes {
		if cl.Final != cl.Want {
			t.Errorf("seed 7 %s: final %v want %v (timeline %v)", cl.Name, cl.Final, cl.Want, cl.Timeline)
		}
		if cl.Dups != 0 || cl.Lost != 0 {
			t.Errorf("seed 7 %s: dups=%d lost=%d", cl.Name, cl.Dups, cl.Lost)
		}
	}
	_ = xrdma.HealthHealthy
}
