package bench

import (
	"testing"
)

// TestBlame is the blame-attribution acceptance gate (E21): each arm
// injects one known latency cause and the top-blamed stage of the
// reconstructed critical paths must name it.
func TestBlame(t *testing.T) {
	r := BlameAttribution(Quick())
	for _, a := range []*BlameArm{r.Incast, r.Brownout, r.SlowRecv} {
		if a.Msgs < 50 {
			t.Errorf("%s: only %d blame-traced messages reconstructed — sampling broken", a.Name, a.Msgs)
		}
		if a.Resps < 50 {
			t.Errorf("%s: only %d responses delivered — load generator broken", a.Name, a.Resps)
		}
		if !a.Match {
			t.Errorf("%s: top-blamed stage %q, want %q (injected: %s)\n%s",
				a.Name, a.Top, a.Want, a.Cause, a.Report)
		}
	}
}
