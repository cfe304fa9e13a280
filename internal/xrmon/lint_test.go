package xrmon_test

import (
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
	"xrdma/internal/xrmon"
)

// Detector-rule lint: every metric name an xrmon rule can reference
// must resolve against a live registry built from a real world — the
// watch list is a contract with the gauge registrations in xrdma,
// rnic and fabric, and this test is what breaks when one of those
// families is renamed. A tenant is configured so the per-tenant slot
// blocks are linted too.
func TestRuleMetricNamesResolve(t *testing.T) {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   rnic.DefaultConfig(),
		Nodes:    4,
		Config: func(_ int, cfg *xrdma.Config) {
			cfg.Tenants = []xrdma.TenantConfig{{Name: "app"}, {Name: "batch", MemBudget: 1 << 20}}
		},
		Seed: 7,
	})
	c.ListenAll(7600, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 0) })
	})
	ch := c.Establish([][2]int{{0, 1}}, 7600)[0]
	ch.SendMsg([]byte("lint"), 0, func(*xrdma.Msg, error) {})
	c.Eng.RunFor(50 * sim.Millisecond) // a few housekeeping ticks

	col := xrmon.For(c.Eng)
	if len(col.Agents()) != 4 {
		t.Fatalf("collector has %d agents, want one per context", len(col.Agents()))
	}
	reg := telemetry.For(c.Eng).Reg
	for _, a := range col.Agents() {
		if a.Missing() != 0 {
			var missing []string
			for _, name := range a.Names() {
				if _, ok := reg.Value(name); !ok {
					missing = append(missing, name)
				}
			}
			t.Errorf("node %d: %d watch-list names do not resolve: %v", a.Node, a.Missing(), missing)
		}
		if len(a.Tenants()) != 2 {
			t.Errorf("node %d: agent carries %d tenant blocks, want 2", a.Node, len(a.Tenants()))
		}
	}
	// Fleet-level names (fabric counters) must resolve too.
	for _, name := range xrmon.FleetWatchNames() {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("fleet watch name %q does not resolve", name)
		}
	}
	if col.FleetAgent().Missing() != 0 {
		t.Errorf("fleet agent has %d unresolved probes", col.FleetAgent().Missing())
	}
	// The agents actually sampled: the housekeeping tick is wired up.
	if col.Epoch() == 0 {
		t.Fatal("no fleet epoch completed — monitor is not driving the agents")
	}
	if a := col.AgentFor(0); a == nil || a.Abs(xrmon.SlotMsgsSent) == 0 {
		t.Fatal("agent 0 never observed the traffic")
	}
}
