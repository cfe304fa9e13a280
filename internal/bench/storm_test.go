package bench

import (
	"testing"

	"xrdma/internal/telemetry"
)

// TestStorm is the E23 acceptance gate: the Storm tradeoff reproduces
// (one-sided GETs beat RPC at read-mostly mixes with almost no responder
// CPU; the write-RPC fallback engages under contention) and the
// transactional guarantees hold at every mix.
func TestStorm(t *testing.T) {
	r := Storm(Quick())
	for _, a := range r.Arms {
		if a.Stale != 0 {
			t.Errorf("%s: %d stale reads — version validation broken", a.Name, a.Stale)
		}
		if a.Dups != 0 || a.Lost != 0 {
			t.Errorf("%s: dups=%d lost=%d — conservation violated", a.Name, a.Dups, a.Lost)
		}
		if a.GetErrs != 0 {
			t.Errorf("%s: %d GET errors", a.Name, a.GetErrs)
		}
		if a.AccessErrs != 0 {
			t.Errorf("%s: %d remote-access errors on a clean run", a.Name, a.AccessErrs)
		}
	}
	for _, mix := range []string{"read100", "read95"} {
		rpc, one := r.Arm(mix+"/rpc"), r.Arm(mix+"/one-sided")
		if one.P50 >= rpc.P50 {
			t.Errorf("%s: one-sided p50 %v not better than RPC %v", mix, one.P50, rpc.P50)
		}
		if one.P99 >= rpc.P99 {
			t.Errorf("%s: one-sided p99 %v not better than RPC %v", mix, one.P99, rpc.P99)
		}
		if one.ServerMsgs >= rpc.ServerMsgs/2 {
			t.Errorf("%s: one-sided server msgs %d not well below RPC %d — responder CPU not offloaded",
				mix, one.ServerMsgs, rpc.ServerMsgs)
		}
	}
	if a := r.Arm("read100/one-sided"); a.Fallbacks != 0 || a.SpecOK != a.Gets {
		t.Errorf("read100: spec=%d fallbacks=%d of %d gets — no writers, every READ must validate",
			a.SpecOK, a.Fallbacks, a.Gets)
	}
	if a := r.Arm("read50/one-sided"); a.Fallbacks == 0 {
		t.Error("read50: zero fallbacks — write contention never caught a critical section")
	}
	// Final store state must be plane-independent: same mix, same writes,
	// same bytes — reads never perturb the table.
	for _, mix := range []string{"read100", "read95", "read50"} {
		if a, b := r.Arm(mix+"/rpc"), r.Arm(mix+"/one-sided"); a.WinHash != b.WinHash {
			t.Errorf("%s: final store diverges between planes (%016x vs %016x)", mix, a.WinHash, b.WinHash)
		}
	}
}

// TestStormBrownout browns out the reader's spine path mid-run: every
// speculative READ must still complete via the shared go-back-N
// machinery — retransmits on the reader's own QP, zero stale reads,
// zero fallbacks (loss is not contention), and the blame plane pinning
// the inflated tail on read.fetch. No second reliability plane exists
// to hide behind.
func TestStormBrownout(t *testing.T) {
	a := runStormArm(Quick(), "brownout/one-sided", true, 200, 0, true)
	if a.Lost != 0 || a.GetErrs != 0 {
		t.Fatalf("brownout: lost=%d errs=%d — reads did not recover", a.Lost, a.GetErrs)
	}
	if a.Stale != 0 {
		t.Fatalf("brownout: %d stale reads", a.Stale)
	}
	if a.Fallbacks != 0 {
		t.Fatalf("brownout: %d fallbacks — loss must be absorbed by retransmission, not re-routed", a.Fallbacks)
	}
	if a.Retransmits == 0 {
		t.Fatal("brownout: zero retransmits — the fault never bit, test is vacuous")
	}
	if a.BlameMsgs == 0 || a.BlameTop != telemetry.StageReadFetch.String() {
		t.Fatalf("brownout: blame top %q over %d msgs, want %q", a.BlameTop, a.BlameMsgs, telemetry.StageReadFetch)
	}
}
