package bench

import (
	"strings"
	"testing"
)

// TestUpgrade is the E25 acceptance gate: a full rolling wave v1→v2 under
// live full-mesh load conserves every message exactly once, rehydrated
// channels keep their negotiated verdict, fresh channels track the
// cluster's live version mix, and every stream ends Healthy on RDMA.
func TestUpgrade(t *testing.T) {
	r := Upgrade(Quick())

	// Conservation: the whole point of the drain deadline + handoff tail +
	// seq-ack replay is that a rolling restart is invisible to the ledger.
	for _, s := range r.Streams {
		if s.Lost != 0 || s.Dups != 0 {
			t.Errorf("stream %d->%d: dups=%d lost=%d — conservation violated", s.From, s.To, s.Dups, s.Lost)
		}
		if s.RespDups != 0 {
			t.Errorf("stream %d->%d: %d duplicate responses", s.From, s.To, s.RespDups)
		}
		if s.Sent == 0 {
			t.Errorf("stream %d->%d: zero accepted sends — test is vacuous", s.From, s.To)
		}
	}

	// Mixed-version interop: a fresh channel dialed while node 3 was still
	// legacy settles on v1; after the wave, fresh channels settle on v2.
	if r.MidVer != 1 {
		t.Errorf("mid-wave fresh channel negotiated v%d, want v1 (node 3 was legacy)", r.MidVer)
	}
	if r.FinalVer != 2 || r.FinalVerHi != 2 {
		t.Errorf("post-wave fresh channels negotiated v%d/v%d, want v2/v2", r.FinalVer, r.FinalVerHi)
	}
	if r.VerMismatches != 0 {
		t.Errorf("%d negotiation failures — every pairing here has overlapping ranges", r.VerMismatches)
	}

	// The wave actually exercised the plane: every node rehydrated at
	// least its client channels, peers degraded and recovered, and the
	// drain gate refused work at least once.
	if r.Rehydrated == 0 {
		t.Error("zero rehydrated channels — the handoff path never ran")
	}
	if r.Degraded == 0 {
		t.Error("zero degraded channels — no restart perturbed a peer, test is vacuous")
	}
	if r.Unhealthy != 0 {
		t.Errorf("%d streams not Healthy at the horizon — recovery did not converge", r.Unhealthy)
	}

	// The chaos log shows all four waves completing with a handoff blob.
	joined := strings.Join(r.ChaosLog, "\n")
	for _, want := range []string{"node.drain 0", "node.upgrade 0", "node.drain 3", "node.upgrade 3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chaos log missing %q:\n%s", want, joined)
		}
	}
}
