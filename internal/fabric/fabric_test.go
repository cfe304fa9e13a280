package fabric

import (
	"reflect"
	"testing"
	"testing/quick"

	"xrdma/internal/sim"
)

type sink struct {
	got   []Packet // copies: the fabric recycles packets after delivery
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) HandlePacket(p *Packet) {
	s.got = append(s.got, *p)
	s.times = append(s.times, s.eng.Now())
}

func buildSmall(t *testing.T, cfg Config) (*sim.Engine, *Fabric, map[NodeID]*sink) {
	t.Helper()
	eng := sim.NewEngine()
	f := New(eng, cfg, 1)
	BuildClos(f, SmallClos())
	sinks := make(map[NodeID]*sink)
	for i := 0; i < f.Hosts(); i++ {
		s := &sink{eng: eng}
		sinks[NodeID(i)] = s
		f.Host(NodeID(i)).Attach(s)
	}
	return eng, f, sinks
}

func TestDeliverySameTor(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	f.Host(0).Send(&Packet{Src: 0, Dst: 1, Size: 1000, FlowHash: 1, ECT: true})
	eng.Run()
	if len(sinks[1].got) != 1 {
		t.Fatalf("host1 received %d packets, want 1", len(sinks[1].got))
	}
	// One host link up + one down + one ToR hop: latency should be a few µs.
	lat := sim.Duration(sinks[1].times[0])
	if lat <= 0 || lat > 10*sim.Microsecond {
		t.Fatalf("same-ToR latency %v outside (0, 10µs]", lat)
	}
}

func TestDeliveryCrossTor(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	// Hosts 0..3 on tor0, 4..7 on tor1.
	f.Host(0).Send(&Packet{Src: 0, Dst: 5, Size: 1000, FlowHash: 2, ECT: true})
	eng.Run()
	if len(sinks[5].got) != 1 {
		t.Fatalf("host5 received %d packets, want 1", len(sinks[5].got))
	}
	if f.Stats.Delivered != 1 {
		t.Fatalf("Stats.Delivered = %d", f.Stats.Delivered)
	}
}

func TestCrossPodDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig(), 1)
	BuildClos(f, Topology{Pods: 2, LeavesPerPod: 2, TorsPerPod: 2, HostsPerTor: 2})
	last := NodeID(f.Hosts() - 1)
	s := &sink{eng: eng}
	f.Host(last).Attach(s)
	f.Host(0).Send(&Packet{Src: 0, Dst: last, Size: 500, FlowHash: 3, ECT: true})
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("cross-pod packet not delivered")
	}
}

func TestInOrderPerFlow(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(i*100), func() {
			f.Host(0).Send(&Packet{Src: 0, Dst: 6, Size: 1500, FlowHash: 42, ECT: true, Payload: i})
		})
	}
	eng.Run()
	if len(sinks[6].got) != n {
		t.Fatalf("received %d, want %d", len(sinks[6].got), n)
	}
	for i, p := range sinks[6].got {
		if p.Payload.(int) != i {
			t.Fatalf("flow reordered at %d: got payload %v", i, p.Payload)
		}
	}
}

func TestECMPUsesMultiplePaths(t *testing.T) {
	eng, f, _ := buildSmall(t, DefaultConfig())
	// Distinct flows from tor0 to tor1 should spread over both leaves.
	for i := 0; i < 64; i++ {
		f.Host(0).Send(&Packet{Src: 0, Dst: 4, Size: 100, FlowHash: uint64(i*2654435761 + 17), ECT: true})
	}
	eng.Run()
	used := 0
	for _, sw := range f.Switches() {
		if sw.Tier == 1 {
			var bytes int64
			for _, p := range sw.ports {
				bytes += p.TxBytes
			}
			if bytes > 0 {
				used++
			}
		}
	}
	if used < 2 {
		t.Fatalf("ECMP used %d leaves, want 2", used)
	}
}

// Property: ECMP is deterministic per flow hash — the same flow always
// takes the same path (no reordering risk).
func TestECMPDeterministicProperty(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig(), 1)
	BuildClos(f, SmallClos())
	var tor *Switch
	for _, sw := range f.Switches() {
		if sw.Tier == 0 {
			tor = sw
			break
		}
	}
	prop := func(hash uint64) bool {
		p1 := &Packet{Src: 0, Dst: 7, FlowHash: hash}
		p2 := &Packet{Src: 0, Dst: 7, FlowHash: hash}
		return tor.route(p1) == tor.route(p2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestECNMarkingUnderCongestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNKminBytes = 10_000
	cfg.ECNKmaxBytes = 40_000
	eng, f, sinks := buildSmall(t, cfg)
	// Incast: hosts 1,2,3 blast host 0 simultaneously.
	for src := 1; src <= 3; src++ {
		for i := 0; i < 100; i++ {
			f.Host(NodeID(src)).Send(&Packet{Src: NodeID(src), Dst: 0, Size: 4096, FlowHash: uint64(src), ECT: true})
		}
	}
	eng.Run()
	if f.Stats.ECNMarks == 0 {
		t.Fatal("incast produced no ECN marks")
	}
	marked := 0
	for _, p := range sinks[0].got {
		if p.Marked {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no marked packets reached the receiver")
	}
}

func TestNoECNWhenIdle(t *testing.T) {
	eng, f, _ := buildSmall(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Time(100*sim.Microsecond), func() {
			f.Host(0).Send(&Packet{Src: 0, Dst: 1, Size: 1000, FlowHash: 9, ECT: true})
		})
	}
	eng.Run()
	if f.Stats.ECNMarks != 0 {
		t.Fatalf("idle network marked %d packets", f.Stats.ECNMarks)
	}
}

func TestPFCPreventsDrops(t *testing.T) {
	f, delivered, sent := pfcBurst(t)
	if f.Stats.Drops != 0 {
		t.Fatalf("lossless fabric dropped %d packets", f.Stats.Drops)
	}
	if delivered != sent {
		t.Fatalf("delivered %d, want %d", delivered, sent)
	}
	if f.Stats.PauseTX == 0 {
		t.Fatal("expected PFC pause frames under pressure with tiny buffers")
	}
}

func TestDropsWithoutPFC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.EgressCap = 32 << 10
	eng, f, _ := buildSmall(t, cfg)
	for src := 1; src <= 3; src++ {
		for i := 0; i < 300; i++ {
			f.Host(NodeID(src)).Send(&Packet{Src: NodeID(src), Dst: 0, Size: 4096, FlowHash: uint64(src), ECT: true})
		}
	}
	eng.Run()
	if f.Stats.Drops == 0 {
		t.Fatal("lossy fabric with tiny buffers should drop under incast")
	}
}

func TestCtrlClassBypassesPause(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EgressCap = 64 << 10
	cfg.PFCXoff = 16 << 10
	cfg.PFCXon = 8 << 10
	eng, f, sinks := buildSmall(t, cfg)
	// Saturate host0's downlink, then inject a ctrl packet; it must still
	// arrive promptly (ctrl is never paused and jumps the data queue).
	for i := 0; i < 200; i++ {
		f.Host(1).Send(&Packet{Src: 1, Dst: 0, Size: 4096, FlowHash: 1, ECT: true})
	}
	var ctrlArrive sim.Time
	eng.At(sim.Time(50*sim.Microsecond), func() {
		f.Host(2).Send(&Packet{Src: 2, Dst: 0, Size: 16, FlowHash: 2, Class: ClassCtrl, Payload: "cnp"})
	})
	eng.Run()
	for i, p := range sinks[0].got {
		if p.Class == ClassCtrl {
			ctrlArrive = sinks[0].times[i]
		}
	}
	if ctrlArrive == 0 {
		t.Fatal("ctrl packet never arrived")
	}
	if d := ctrlArrive - sim.Time(50*sim.Microsecond); d > sim.Time(20*sim.Microsecond) {
		t.Fatalf("ctrl packet delayed %v behind bulk data", sim.Duration(d))
	}
}

func TestBandwidthCeiling(t *testing.T) {
	eng, f, sinks := buildSmall(t, DefaultConfig())
	// Blast 25 MB host0→host4 and check goodput ≈ link rate.
	const total, mtu = 25 << 20, 4096 // the RNIC's segment size
	for off := 0; off < total; off += mtu {
		f.Host(0).Send(&Packet{Src: 0, Dst: 4, Size: mtu, FlowHash: 7, ECT: true})
	}
	eng.Run()
	elapsed := sim.Duration(sinks[4].times[len(sinks[4].times)-1])
	gbps := float64(total) * 8 / elapsed.Seconds() / 1e9
	if gbps > 25.0 {
		t.Fatalf("goodput %.2f Gbps exceeds 25 Gbps link", gbps)
	}
	if gbps < 20.0 {
		t.Fatalf("goodput %.2f Gbps too far below line rate", gbps)
	}
}

func TestTopologyValidation(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology did not panic")
		}
	}()
	BuildClos(f, Topology{})
}

func TestClusterClosSizing(t *testing.T) {
	top := ClusterClos(64)
	if top.Hosts() < 64 {
		t.Fatalf("ClusterClos(64) has %d hosts", top.Hosts())
	}
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig(), 1)
	BuildClos(f, top)
	if f.Hosts() != top.Hosts() {
		t.Fatalf("built %d hosts, want %d", f.Hosts(), top.Hosts())
	}
	// Every pair of a sample must be routable.
	s := &sink{eng: eng}
	f.Host(NodeID(top.Hosts() - 1)).Attach(s)
	f.Host(0).Send(&Packet{Src: 0, Dst: NodeID(top.Hosts() - 1), Size: 64, FlowHash: 5})
	eng.Run()
	if len(s.got) != 1 {
		t.Fatal("sample route in ClusterClos failed")
	}
}

// TestConfigFieldBudget holds Config at the options some world sets; the
// link rates and delays are constants. Raising it is a regression to
// explain, like xrdma's TestChannelStructBudget.
func TestConfigFieldBudget(t *testing.T) {
	got, most := reflect.TypeOf(Config{}).NumField(), 6
	t.Logf("fabric.Config fields = %d (budget %d)", got, most)
	if got > most {
		t.Errorf("fabric.Config has %d fields, budget %d", got, most)
	}
}
