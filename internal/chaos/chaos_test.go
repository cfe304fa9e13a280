package chaos

import (
	"strconv"
	"strings"
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

func smokeCluster(seed uint64) *cluster.Cluster {
	// Compress the RC retry horizon and keepalive clocks so a 50 ms
	// outage is long enough to trip failure detection in the smoke test.
	nic := rnic.DefaultConfig()
	nic.RetransTimeout = 2 * sim.Millisecond
	nic.RetryLimit = 3
	return cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic,
		Nodes:    8,
		Config: func(_ int, cfg *xrdma.Config) {
			cfg.MockEnabled = true
			cfg.KeepaliveInterval = 2 * sim.Millisecond
			cfg.KeepaliveTimeout = 8 * sim.Millisecond
		},
		MockPort:    9000,
		RecoverPort: 9100,
		Seed:        seed,
	})
}

// TestInjectorActionsAndCounters smoke-tests every injector verb against
// a live cluster: each must take effect, be undoable, and tick the right
// chaos.* counter. This is the CI chaos gate — it runs under -race.
func TestInjectorActionsAndCounters(t *testing.T) {
	c := smokeCluster(42)
	inj := New(c)

	inj.LinkDown("pod0-tor0", "pod0-leaf0")
	inj.LinkUp("pod0-tor0", "pod0-leaf0")
	inj.Brownout("pod0-tor0", "pod0-leaf1", 0.1, 0.01, sim.Microsecond)
	inj.ClearBrownout("pod0-tor0", "pod0-leaf1")
	inj.SwitchDown("pod0-leaf0")
	inj.SwitchUp("pod0-leaf0")
	inj.HostLinkDown(3)
	inj.HostLinkUp(3)
	inj.NodeCrash(7)
	inj.NodeRestart(7)
	inj.NicCrash(6)

	if got, want := inj.Faults(), int64(6); got != want {
		t.Errorf("fault counter %d, want %d", got, want)
	}
	if got, want := inj.Heals(), int64(5); got != want {
		t.Errorf("heal counter %d, want %d", got, want)
	}
	if len(inj.Log) != 11 {
		t.Errorf("log has %d events, want 11", len(inj.Log))
	}
}

func TestUnknownTargetsPanic(t *testing.T) {
	c := smokeCluster(42)
	inj := New(c)
	for name, fn := range map[string]func(){
		"link":   func() { inj.LinkDown("nope", "also-nope") },
		"switch": func() { inj.SwitchDown("spine99") },
		"host":   func() { inj.HostLinkDown(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad label did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestScheduleFiresAtExactOffsets: scheduled steps run at their simulated
// offsets and the digest is a pure function of the seed.
func TestScheduleFiresAtExactOffsets(t *testing.T) {
	run := func() []string {
		c := smokeCluster(42)
		inj := New(c)
		inj.Schedule([]Step{
			{At: 5 * sim.Millisecond, Name: "flap", Do: func(i *Injector) {
				i.LinkFlap("pod0-tor0", "pod0-leaf0", 3*sim.Millisecond)
			}},
			{At: 10 * sim.Millisecond, Name: "crash", Do: func(i *Injector) { i.NodeCrash(5) }},
			{At: 20 * sim.Millisecond, Name: "restart", Do: func(i *Injector) { i.NodeRestart(5) }},
		})
		c.Eng.RunFor(30 * sim.Millisecond)
		return inj.Digest()
	}
	d1 := run()
	want := []string{
		"t=5ms link.down pod0-tor0<->pod0-leaf0",
		"t=8ms link.up pod0-tor0<->pod0-leaf0",
		"t=10ms node.crash 5",
		"t=20ms node.restart 5",
	}
	if strings.Join(d1, "\n") != strings.Join(want, "\n") {
		t.Fatalf("digest:\n%s\nwant:\n%s", strings.Join(d1, "\n"), strings.Join(want, "\n"))
	}
	d2 := run()
	if strings.Join(d1, "\n") != strings.Join(d2, "\n") {
		t.Fatal("same seed produced different fault timelines")
	}
}

// TestFaultsPerturbLiveTraffic: a scheduled host-link flap against a
// live channel degrades it and the recovery machinery brings it back —
// the end-to-end smoke of scheduler + health machine together.
func TestFaultsPerturbLiveTraffic(t *testing.T) {
	c := smokeCluster(42)
	c.ListenAll(7000, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), m.Len) })
	})
	ch := c.Establish([][2]int{{0, 4}}, 7000)[0]

	degraded := false
	ch.OnHealthChange(func(h xrdma.HealthState) {
		if h != xrdma.HealthHealthy {
			degraded = true
		}
	})
	// Light keepalive traffic keeps the channel observed.
	inj := New(c)
	inj.Schedule([]Step{
		{At: 10 * sim.Millisecond, Name: "cable out", Do: func(i *Injector) { i.HostLinkDown(4) }},
		{At: 60 * sim.Millisecond, Name: "cable in", Do: func(i *Injector) { i.HostLinkUp(4) }},
	})
	c.Eng.RunFor(500 * sim.Millisecond)

	if !degraded {
		t.Fatal("host link outage never degraded the channel")
	}
	if ch.Health() != xrdma.HealthHealthy {
		t.Fatalf("channel ended %v, want recovery to Healthy", ch.Health())
	}
	if inj.Faults() != 1 || inj.Heals() != 1 {
		t.Errorf("counters: faults=%d heals=%d", inj.Faults(), inj.Heals())
	}
}

// TestIncidentsRecordedOnce runs a fault world — a fabric link flap, a
// switch failure and a host cable pull under live traffic — with the
// timeline on. Every incident is one flight record, and the timeline shows
// each record exactly once, on the track of the layer and node that
// recorded it: no (name, track, at) instant appears more often than the
// flight recorder holds records of that category, node and instant. The
// only other instants are the per-message ones.
func TestIncidentsRecordedOnce(t *testing.T) {
	c := smokeCluster(42)
	tel := telemetry.For(c.Eng)
	tel.Trace.Enable(1 << 16)
	c.ListenAll(7000, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), m.Len) })
	})
	ch := c.Establish([][2]int{{0, 4}}, 7000)[0]
	var tick func()
	tick = func() {
		if c.Eng.Now() < sim.Time(200*sim.Millisecond) {
			ch.SendMsg(make([]byte, 64), 0, func(*xrdma.Msg, error) {})
			c.Eng.AfterBg(sim.Millisecond, tick)
		}
	}
	tick()
	inj := New(c)
	inj.Schedule([]Step{
		{At: 5 * sim.Millisecond, Name: "flap", Do: func(i *Injector) { i.LinkFlap("pod0-tor0", "pod0-leaf0", 3*sim.Millisecond) }},
		{At: 10 * sim.Millisecond, Name: "leaf down", Do: func(i *Injector) { i.SwitchDown("pod0-leaf1") }},
		{At: 15 * sim.Millisecond, Name: "leaf up", Do: func(i *Injector) { i.SwitchUp("pod0-leaf1") }},
		{At: 20 * sim.Millisecond, Name: "cable out", Do: func(i *Injector) { i.HostLinkDown(4) }},
		{At: 60 * sim.Millisecond, Name: "cable in", Do: func(i *Injector) { i.HostLinkUp(4) }},
	})
	c.Eng.RunFor(300 * sim.Millisecond)

	if tel.Trace.Dropped() > 0 {
		t.Fatalf("the timeline overwrote %d events: enlarge it", tel.Trace.Dropped())
	}
	// The recorder keeps its last 256 records: compare after the oldest
	// instant it may hold only part of.
	held := tel.Flight.ForceDump(c.Eng.Now(), "test")
	cutoff := sim.Time(-1)
	if held.Lost > 0 {
		cutoff = held.Events[0].At
	}
	type key struct {
		name string
		node int32
		at   sim.Time
		a    int64
	}
	want, got := map[key]int{}, map[key]int{}
	for _, e := range held.Events {
		if e.At > cutoff {
			want[key{e.Cat.String(), e.Node, e.At, e.A}]++
		}
	}
	layers := map[string]int{}
	for _, e := range tel.Trace.Events() {
		switch {
		case e.Kind != telemetry.KindInstant:
		case e.Name == "msg.send", e.Name == "msg.deliver", e.Name == "trace.req", e.Name == "trace.resp":
		case e.At > cutoff:
			layer, num, perNode := strings.Cut(e.Track, ".")
			node := int32(-1)
			if perNode {
				n, err := strconv.Atoi(num)
				if err != nil {
					t.Fatalf("instant %s on track %q", e.Name, e.Track)
				}
				node = int32(n)
			}
			layers[layer]++
			got[key{e.Name, node, e.At, e.Arg}]++
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s node=%d at %v a=%d: %d flight records, %d timeline instants", k.name, k.node, k.at, k.a, n, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s node=%d at %v a=%d: %d timeline instants and no flight record", k.name, k.node, k.at, k.a, n)
		}
	}
	t.Logf("layers %v, %d distinct records, %d lost", layers, len(want), held.Lost)
	// The world must have exercised every layer's track.
	if len(want) == 0 || len(layers) != 4 {
		t.Fatalf("instants per layer %v over %d records: the world did not reach all four layers", layers, len(want))
	}
}
