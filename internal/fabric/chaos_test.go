package fabric

import (
	"testing"

	"xrdma/internal/sim"
)

// sendFlows pushes one packet per flow hash in each direction between a
// and b and returns how many the two sinks got in total.
func sendFlows(eng *sim.Engine, f *Fabric, sinks map[NodeID]*sink, a, b NodeID, flows int) int {
	beforeA, beforeB := len(sinks[a].got), len(sinks[b].got)
	for i := 0; i < flows; i++ {
		f.Host(a).Send(pkt(f, a, b, uint64(i+1)))
		f.Host(b).Send(pkt(f, b, a, uint64(i+1)))
	}
	eng.Run()
	return (len(sinks[a].got) - beforeA) + (len(sinks[b].got) - beforeB)
}

// pkt is a 1000 B ECN-capable frame from a to b, off the fabric's free list.
func pkt(f *Fabric, a, b NodeID, flowHash uint64) *Packet {
	p := f.NewPacket()
	p.Src, p.Dst, p.Size, p.FlowHash, p.ECT = a, b, 1000, flowHash, true
	return p
}

// TestLinkDownECMPReroutes: killing one ToR uplink must not lose a single
// cross-ToR packet — both the ToR that owns the dead uplink and the
// remote ToR (whose hash would steer flows into the now-dead leaf
// downlink) re-hash onto the surviving leaf, and the per-switch Rerouted
// counters show where the steering happened.
func TestLinkDownECMPReroutes(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	const flows = 32

	if got := sendFlows(eng, f, sinks, 0, 5, flows); got != 2*flows {
		t.Fatalf("healthy fabric delivered %d/%d", got, 2*flows)
	}
	if f.Stats.Rerouted != 0 {
		t.Fatalf("healthy fabric rerouted %d packets", f.Stats.Rerouted)
	}

	if !f.SetLinkState("pod0-tor0", "pod0-leaf0", false) {
		t.Fatal("link not found")
	}
	if got := sendFlows(eng, f, sinks, 0, 5, flows); got != 2*flows {
		t.Fatalf("after uplink loss delivered %d/%d", got, 2*flows)
	}
	if f.Stats.Rerouted == 0 {
		t.Fatal("no packets counted as rerouted")
	}
	tor0 := f.SwitchByLabel("pod0-tor0")
	tor1 := f.SwitchByLabel("pod0-tor1")
	if tor0.Rerouted == 0 {
		t.Errorf("tor0 (dead uplink owner) rerouted %d", tor0.Rerouted)
	}
	if tor1.Rerouted == 0 {
		t.Errorf("tor1 (remote, viability-driven) rerouted %d", tor1.Rerouted)
	}

	// Heal: subsequent traffic spreads over both leaves again with no
	// further rerouting.
	f.SetLinkState("pod0-tor0", "pod0-leaf0", true)
	before := f.Stats.Rerouted
	if got := sendFlows(eng, f, sinks, 0, 5, flows); got != 2*flows {
		t.Fatalf("after heal delivered %d/%d", got, 2*flows)
	}
	if f.Stats.Rerouted != before {
		t.Errorf("healed fabric still rerouting: %d -> %d", before, f.Stats.Rerouted)
	}
}

// TestTorIsolationDropsWithCounters: with both uplinks dead the ToR has
// nowhere to steer — cross-ToR packets die at the ToR and the per-switch
// dead-route and drop counters record it.
func TestTorIsolationDropsWithCounters(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	f.SetLinkState("pod0-tor0", "pod0-leaf0", false)
	f.SetLinkState("pod0-tor0", "pod0-leaf1", false)

	if got := sendFlows(eng, f, sinks, 0, 5, 8); got != 0 {
		t.Fatalf("partitioned fabric delivered %d packets", got)
	}
	tor0 := f.SwitchByLabel("pod0-tor0")
	tor1 := f.SwitchByLabel("pod0-tor1")
	if tor0.DeadDrops == 0 || tor0.Drops == 0 {
		t.Errorf("tor0 counters: DeadDrops=%d Drops=%d, want both > 0", tor0.DeadDrops, tor0.Drops)
	}
	// The reverse direction dies at tor1: every leaf has lost its path
	// down into tor0, so viability rules out both uplinks.
	if tor1.DeadDrops == 0 {
		t.Errorf("tor1 DeadDrops=%d, want > 0", tor1.DeadDrops)
	}
	if f.Stats.Drops == 0 {
		t.Error("fabric-wide drop counter never moved")
	}

	// Same-ToR traffic is unaffected by uplink loss.
	if got := sendFlows(eng, f, sinks, 0, 1, 4); got != 8 {
		t.Fatalf("same-ToR traffic delivered %d/8 during uplink outage", got)
	}

	f.SetLinkState("pod0-tor0", "pod0-leaf0", true)
	f.SetLinkState("pod0-tor0", "pod0-leaf1", true)
	if got := sendFlows(eng, f, sinks, 0, 5, 8); got != 16 {
		t.Fatalf("healed fabric delivered %d/16", got)
	}
}

// TestSwitchFailureSteersAroundBox: powering off a leaf reroutes every
// flow that hashed through it; powering it back on restores spreading.
func TestSwitchFailureSteersAroundBox(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	if !f.SetSwitchState("pod0-leaf0", false) {
		t.Fatal("switch not found")
	}
	if got := sendFlows(eng, f, sinks, 1, 6, 16); got != 32 {
		t.Fatalf("leaf failure: delivered %d/32", got)
	}
	if f.Stats.Rerouted == 0 {
		t.Error("no rerouting recorded around dead leaf")
	}
	leaf0 := f.SwitchByLabel("pod0-leaf0")
	if leaf0.Drops != 0 {
		// Nothing was in flight when the box died; new traffic must never
		// reach it.
		t.Errorf("dead leaf saw %d drops of traffic routed into it", leaf0.Drops)
	}
	f.SetSwitchState("pod0-leaf0", true)
	if got := sendFlows(eng, f, sinks, 1, 6, 16); got != 32 {
		t.Fatalf("after power-on: delivered %d/32", got)
	}
}

// TestHostLinkPullIsolatesOneHost: a pulled access cable kills that
// host's traffic (counted at its ToR) and nobody else's.
func TestHostLinkPullIsolatesOneHost(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	if !f.SetHostLink(5, false) {
		t.Fatal("host not found")
	}
	f.Host(0).Send(&Packet{Src: 0, Dst: 5, Size: 1000, FlowHash: 3, ECT: true})
	f.Host(0).Send(&Packet{Src: 0, Dst: 6, Size: 1000, FlowHash: 4, ECT: true})
	eng.Run()
	if len(sinks[5].got) != 0 {
		t.Fatalf("unplugged host received %d packets", len(sinks[5].got))
	}
	if len(sinks[6].got) != 1 {
		t.Fatalf("bystander host received %d/1 packets", len(sinks[6].got))
	}
	// Viability propagates the dead access port upstream: the sender's
	// own ToR already sees no viable route and drops there, exactly like
	// a fabric whose IGP withdrew the /32.
	if tor0 := f.SwitchByLabel("pod0-tor0"); tor0.DeadDrops == 0 {
		t.Error("sender's ToR never counted the unreachable host")
	}
	f.SetHostLink(5, true)
	f.Host(0).Send(&Packet{Src: 0, Dst: 5, Size: 1000, FlowHash: 5, ECT: true})
	eng.Run()
	if len(sinks[5].got) != 1 {
		t.Fatal("replugged host got no traffic")
	}
}

// TestBrownoutLossAndCorruption: impairments drop or corrupt frames
// per-probability and clear cleanly.
func TestBrownoutLossAndCorruption(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	// Total loss on one uplink: flows hashed through it vanish (the link
	// is up, so ECMP does not steer around a lossy optic — that is the
	// middleware's job to detect, §V-A).
	if !f.SetLinkImpairment("pod0-tor0", "pod0-leaf0", 1.0, 0, 0) {
		t.Fatal("link not found")
	}
	got := sendFlows(eng, f, sinks, 0, 5, 16)
	if got == 0 || got == 32 {
		t.Fatalf("total loss on one of two ECMP paths delivered %d/32, want partial", got)
	}

	// Certain corruption: everything arrives, marked, and counted.
	f.SetLinkImpairment("pod0-tor0", "pod0-leaf0", 0, 1.0, 0)
	before := len(sinks[5].got)
	corrBefore := f.Stats.Corrupted
	for i := 0; i < 16; i++ {
		f.Host(0).Send(pkt(f, 0, 5, uint64(100+i)))
	}
	eng.Run()
	delivered := sinks[5].got[before:]
	if len(delivered) != 16 {
		t.Fatalf("corruption-only brownout delivered %d/16", len(delivered))
	}
	corrupt := 0
	for _, p := range delivered {
		if p.Corrupt {
			corrupt++
		}
	}
	if corrupt == 0 {
		t.Fatal("no delivered packet carried the corruption mark")
	}
	if f.Stats.Corrupted == corrBefore {
		t.Error("fabric corruption counter never moved")
	}

	// Clearing the impairment restores clean delivery.
	f.SetLinkImpairment("pod0-tor0", "pod0-leaf0", 0, 0, 0)
	before = len(sinks[5].got)
	for i := 0; i < 8; i++ {
		f.Host(0).Send(pkt(f, 0, 5, uint64(200+i)))
	}
	eng.Run()
	for _, p := range sinks[5].got[before:] {
		if p.Corrupt {
			t.Fatal("packet corrupted after impairment cleared")
		}
	}
	if n := len(sinks[5].got) - before; n != 8 {
		t.Fatalf("cleared link delivered %d/8", n)
	}
	// Dropped or delivered, every packet came home: Live − Free is out.
	if pf := &f.pktFree; pf.Live() == 0 || pf.Live() != pf.Free() {
		t.Errorf("packets at rest: %d made, %d on the free list", pf.Live(), pf.Free())
	}
}
