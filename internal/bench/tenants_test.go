package bench

import (
	"strings"
	"testing"
)

// TestTenants is the E24 acceptance gate: the elephant's flood stays
// contained by its own limits (DRR weight, token bucket, window
// partition, memory budget) so the mouse's contended tail holds within
// 1.25× of its alone baseline; budget breaches reject loudly and shed
// new attaches, flight dumps name the culprit, and the shed clears once
// the load drops.
func TestTenants(t *testing.T) {
	r := Tenants(Quick())
	alone, shared := r.Alone, r.Shared

	for _, a := range []*TenantArm{alone, shared} {
		if a.MouseLost != 0 || a.MouseDups != 0 {
			t.Errorf("%s: mouse dups=%d lost=%d — conservation violated", a.Name, a.MouseDups, a.MouseLost)
		}
		if a.SendErrs != 0 {
			t.Errorf("%s: %d mouse send errors", a.Name, a.SendErrs)
		}
	}

	// Isolation: the shared-arm mouse tail must stay within ε=25% of the
	// alone baseline while the elephant is at full load.
	if limit := alone.P99 + alone.P99/4; shared.P99 > limit {
		t.Errorf("isolation broken: shared mouse p99 %v > 1.25x alone %v", shared.P99, alone.P99)
	}

	// Overload degrades gracefully, never silently: the elephant's memory
	// budget rejects allocations with ErrTenantBudget...
	if shared.EleBudgetErr == 0 {
		t.Error("zero ErrTenantBudget completions — the memory budget never bit, test is vacuous")
	}
	// ...each episode trips a flight dump naming the elephant (tenant id
	// 2 — second entry of the config table) in the QPN field...
	if shared.ShedDumps == 0 {
		t.Error("zero tenant.shed flight dumps")
	}
	if shared.ShedCulprit != 2 {
		t.Errorf("shed dump names tenant %d, want elephant (2)", shared.ShedCulprit)
	}
	// ...and late attaches are shed into the admission FIFO, establishing
	// only after the elephant stops.
	if shared.LateAttached != tenLateChans {
		t.Errorf("late elephant channels attached=%d of %d after the load dropped", shared.LateAttached, tenLateChans)
	}
	for _, line := range shared.TenantLog {
		if strings.HasPrefix(line, "tenant elephant") && (strings.Contains(line, "ashed=0") || strings.Contains(line, "sheds=0 ")) {
			t.Errorf("elephant never shed: %s", line)
		}
	}

	// Recovered window: with the elephant gone, the shared-arm mouse tail
	// must return to the alone baseline's neighborhood.
	if limit := alone.RecovP99 + alone.RecovP99/4; shared.RecovP99 > limit {
		t.Errorf("no recovery: shared mouse recovered p99 %v > 1.25x alone %v", shared.RecovP99, alone.RecovP99)
	}
}
