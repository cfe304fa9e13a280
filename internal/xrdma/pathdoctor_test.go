package xrdma

import (
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// TestFlowLabelSteersECMP: rotating a QP's flow label must change the
// effective flow key so the ToR's deterministic ECMP hash can pick a
// different uplink — and the connection must keep working across the
// rotation (go-back-N absorbs any transient reorder).
func TestFlowLabelSteersECMP(t *testing.T) {
	w := newWorld(t, 8, nil)
	cli, srv := w.connect(t, 0, 4, 5600) // cross-ToR on SmallClos: 2 uplinks
	echoServer(srv)

	base := cli.FlowHash()
	baseIdx := fabric.ECMPIndex(base, 2)
	// Find a label that steers onto the other uplink; with 2 candidates a
	// handful of draws must suffice.
	var steered uint64
	for label := uint64(1); label < 32; label++ {
		if err := w.ctxs[0].vctx.ModifyFlowLabel(cli.QPN(), label); err != nil {
			t.Fatal(err)
		}
		if cli.FlowHash() == base {
			t.Fatalf("label %d left the flow hash unchanged", label)
		}
		if fabric.ECMPIndex(cli.FlowHash(), 2) != baseIdx {
			steered = label
			break
		}
	}
	if steered == 0 {
		t.Fatal("no label in [1,32) steered the flow onto the other uplink")
	}

	// Traffic still flows on the rotated path.
	var resp bool
	cli.SendMsg([]byte("after rotation"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("post-rotation response: %v", err)
		}
		resp = true
	})
	w.eng.Run()
	if !resp {
		t.Fatal("no response after flow-label rotation")
	}

	// Label 0 restores the canonical path.
	if err := w.ctxs[0].vctx.ModifyFlowLabel(cli.QPN(), 0); err != nil {
		t.Fatal(err)
	}
	if cli.FlowHash() != base {
		t.Fatal("label 0 did not restore the canonical flow key")
	}
}

// TestPathDoctorInertWithoutFaults: on a healthy fabric the doctor must
// be a pure observer — verdict clean, no rotations, no RNG draws that
// could perturb the golden runs.
func TestPathDoctorInertWithoutFaults(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) {
		cfg.StatsInterval = 500 * sim.Microsecond
	})
	cli, srv := w.connect(t, 0, 1, 5604)
	echoServer(srv)
	for i := 0; i < 50; i++ {
		cli.SendMsg([]byte("steady"), 0, func(m *Msg, err error) {})
	}
	w.eng.RunFor(20 * sim.Millisecond)
	if v := cli.PathVerdict(); v != PathClean {
		t.Errorf("verdict %v on a clean fabric", v)
	}
	if cli.Rehashes() != 0 || w.ctxs[0].Stats.PathRehashes != 0 {
		t.Errorf("doctor rotated labels with no fault present")
	}
	if len(cli.PathLog()) != 0 {
		t.Errorf("unexpected verdict transitions: %v", cli.PathLog())
	}
}
