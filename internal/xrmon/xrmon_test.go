package xrmon

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// fakeNode registers a synthetic node's watch-list metrics as plain
// gauges the test can move by hand, and returns the setter.
type fakeNode struct {
	vals map[string]int64
}

func newFakeNode(t *testing.T, eng *sim.Engine, node int32, tenants []TenantRef) (*Agent, *fakeNode) {
	t.Helper()
	reg := telemetry.For(eng).Reg
	f := &fakeNode{vals: map[string]int64{}}
	nic, ctx := "rnic."+itoa(int64(node))+".", "xrdma."+itoa(int64(node))+"."
	names := NodeWatchNames(nic, ctx)
	for _, tr := range tenants {
		names = append(names, TenantWatchNames(ctx, tr.ID)...)
	}
	for _, name := range names {
		name := name
		f.vals[name] = 0
		reg.GaugeFunc(name, func() int64 { return f.vals[name] })
	}
	a := For(eng).RegisterAgent(node, nic, ctx, tenants)
	if a.Missing() != 0 {
		t.Fatalf("agent for node %d has %d unresolved probes", node, a.Missing())
	}
	return a, f
}

func (f *fakeNode) set(name string, v int64) { f.vals[name] = v }
func (f *fakeNode) add(name string, d int64) { f.vals[name] += d }

func TestAgentDeltasAndWindow(t *testing.T) {
	eng := sim.NewEngine()
	a, f := newFakeNode(t, eng, 0, nil)

	name := "rnic.0.msgs_sent"
	for i := 1; i <= 3; i++ {
		f.add(name, 10)
		a.Sample(sim.Time(i) * sim.Time(sim.Millisecond))
	}
	if d := a.Delta(SlotMsgsSent); d != 10 {
		t.Fatalf("Delta = %d, want 10", d)
	}
	if w := a.WindowSum(SlotMsgsSent); w != 30 {
		t.Fatalf("WindowSum = %d, want 30", w)
	}
	if abs := a.Abs(SlotMsgsSent); abs != 30 {
		t.Fatalf("Abs = %d, want 30", abs)
	}
	if n := a.LastN(SlotMsgsSent, 2); n != 20 {
		t.Fatalf("LastN(2) = %d, want 20", n)
	}

	// Counter reset (NIC restart) clamps to zero instead of a negative
	// rate; gauges are allowed to fall.
	f.set(name, 0)
	f.set("xrdma.0.mem_inuse", -5) // gauge relative to its prior 0
	a.Sample(4 * sim.Time(sim.Millisecond))
	if d := a.Delta(SlotMsgsSent); d != 0 {
		t.Fatalf("reset delta = %d, want clamped 0", d)
	}
	if d := a.Delta(SlotMemInUse); d != -5 {
		t.Fatalf("gauge delta = %d, want -5", d)
	}
}

// The agent ring is a hard memory bound: no matter how many ticks run,
// storage stays len(names)·Window and only Window columns are valid.
func TestAgentRingBound(t *testing.T) {
	eng := sim.NewEngine()
	a, f := newFakeNode(t, eng, 0, nil)
	ringLen, atLen := len(a.ring), len(a.at)
	for i := 1; i <= 10000; i++ {
		f.add("rnic.0.msgs_sent", 1)
		a.Sample(sim.Time(i) * sim.Time(sim.Microsecond))
	}
	if len(a.ring) != ringLen || len(a.at) != atLen {
		t.Fatalf("ring grew: %d->%d, at %d->%d", ringLen, len(a.ring), atLen, len(a.at))
	}
	if a.Len() != Window {
		t.Fatalf("Len = %d, want Window=%d", a.Len(), Window)
	}
	if a.Samples() != 10000 {
		t.Fatalf("Samples = %d, want 10000", a.Samples())
	}
	if w := a.WindowSum(SlotMsgsSent); w != Window {
		t.Fatalf("WindowSum = %d, want %d (only the last %d deltas)", w, Window, Window)
	}
}

func TestCollectorEpochsAndIncidentLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	col := For(eng)
	if For(eng) != col {
		t.Fatal("For is not engine-keyed")
	}
	a0, f0 := newFakeNode(t, eng, 0, nil)
	a1, f1 := newFakeNode(t, eng, 1, []TenantRef{{ID: 1, Label: "elephant"}})
	col.SetLocation(0, "pod0-tor0", "pod0")
	col.SetLocation(1, "pod0-tor1", "pod0")
	col.Watch(WatchConfig{})

	var transitions []string
	col.OnIncident(func(inc *Incident, ev string) {
		transitions = append(transitions, ev+":"+inc.Class.String()+":"+inc.Culprit)
	})

	ms := sim.Time(sim.Millisecond)
	tick := func(i int) {
		f0.add("rnic.0.msgs_sent", 20)
		f0.add("rnic.0.msgs_recv", 20)
		f1.add("rnic.1.msgs_sent", 20)
		f1.add("rnic.1.msgs_recv", 20)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	// Clean warm-up: no incidents may open.
	i := 1
	for ; i <= 6; i++ {
		tick(i)
	}
	if col.Epoch() != 6 {
		t.Fatalf("epoch = %d, want 6", col.Epoch())
	}
	if len(col.Incidents()) != 0 {
		t.Fatalf("clean phase opened incidents: %v", col.Digest())
	}

	// Tenant overload on node 1: budget rejects stream in.
	for ; i <= 12; i++ {
		f1.add("xrdma.1.tenant.1.mem_rejects", 4)
		tick(i)
	}
	open := col.OpenIncidents()
	if len(open) != 1 || open[0].Class != IncTenantOverload || open[0].Culprit != "tenant:elephant@node1" {
		t.Fatalf("tenant overload not diagnosed: %v", col.Digest())
	}
	if open[0].Confidence <= 0 || len(open[0].Evidence) == 0 {
		t.Fatalf("incident lacks confidence/evidence: %+v", open[0])
	}

	// Heal: window drains, incident closes after CloseAfter quiet epochs.
	for ; i <= 30; i++ {
		tick(i)
	}
	if n := len(col.OpenIncidents()); n != 0 {
		t.Fatalf("%d incidents still open after heal: %v", n, col.Digest())
	}
	incs := col.Incidents()
	if len(incs) != 1 || !incs[0].Closed || incs[0].ClosedAt == 0 {
		t.Fatalf("incident did not close cleanly: %v", col.Digest())
	}

	// Transitions fired in order, and the digest is replay-stable.
	if len(transitions) == 0 || !strings.HasPrefix(transitions[0], "open:tenant-overload:") {
		t.Fatalf("transitions = %v", transitions)
	}
	last := transitions[len(transitions)-1]
	if !strings.HasPrefix(last, "close:tenant-overload:") {
		t.Fatalf("last transition = %q, want close", last)
	}
	d1 := strings.Join(col.Digest(), "\n")
	d2 := strings.Join(col.Digest(), "\n")
	if d1 != d2 || d1 == "" {
		t.Fatal("digest unstable or empty")
	}
}

func TestNodeDownRule(t *testing.T) {
	eng := sim.NewEngine()
	col := For(eng)
	a0, f0 := newFakeNode(t, eng, 0, nil)
	a1, f1 := newFakeNode(t, eng, 1, nil)
	col.Watch(WatchConfig{})
	ms := sim.Time(sim.Millisecond)
	i := 1
	for ; i <= 6; i++ { // both active
		f0.add("rnic.0.msgs_sent", 10)
		f1.add("rnic.1.msgs_sent", 10)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	// Node 1 flatlines; node 0 notices keepalive failures.
	for ; i <= 12; i++ {
		f0.add("rnic.0.msgs_sent", 10)
		if i == 8 {
			f0.add("xrdma.0.keepalive_fails", 1)
		}
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	open := col.OpenIncidents()
	if len(open) != 1 || open[0].Class != IncNodeDown || open[0].Culprit != "node1" {
		t.Fatalf("node-down not diagnosed: %v", col.Digest())
	}
	// The flatline alone keeps it open even after the keepalive window
	// drains (peers' counters freeze once their channels break).
	for ; i <= 40; i++ {
		f0.add("rnic.0.msgs_sent", 10)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	if len(col.OpenIncidents()) != 1 {
		t.Fatalf("node-down closed while the node is still down: %v", col.Digest())
	}
}

// TestEveryNewDumpIsEvidence: an incident attaches every flight dump the
// recorder still holds that no earlier incident attached — also when more
// trips than the recorder keeps (8) land between two incidents.
func TestEveryNewDumpIsEvidence(t *testing.T) {
	eng := sim.NewEngine()
	col := For(eng)
	flight := telemetry.For(eng).Flight
	a0, f0 := newFakeNode(t, eng, 0, nil)
	a1, f1 := newFakeNode(t, eng, 1, []TenantRef{{ID: 1, Label: "elephant"}})
	col.Watch(WatchConfig{})
	ms := sim.Time(sim.Millisecond)
	trip := func(at sim.Time, n int) {
		for k := 0; k < n; k++ {
			flight.Trip(at.Add(sim.Duration(k)*sim.Microsecond), telemetry.CatKeepaliveFail, 1, uint32(k))
		}
	}
	dumps := func(inc *Incident) (got []string) {
		for _, e := range inc.Evidence {
			if strings.HasPrefix(e, "flight-dump: ") {
				got = append(got, e)
			}
		}
		return got
	}
	i := 1
	for ; i <= 6; i++ {
		f0.add("rnic.0.msgs_sent", 10)
		f1.add("rnic.1.msgs_sent", 10)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	trip(sim.Time(i)*ms, 3)
	for ; len(col.Incidents()) == 0 && i <= 20; i++ { // a tenant overload on node 1
		f0.add("rnic.0.msgs_sent", 10)
		f1.add("rnic.1.msgs_sent", 10)
		f1.add("xrdma.1.tenant.1.mem_rejects", 4)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	if incs := col.Incidents(); len(incs) != 1 || len(dumps(incs[0])) != 3 {
		t.Fatalf("first incident: %v, want one with 3 flight dumps", col.Digest())
	}
	last := sim.Time(i) * ms
	trip(last, 12) // more than the recorder keeps
	// Node 1 flatlines.
	for ; len(col.Incidents()) == 1 && i <= 40; i++ {
		f0.add("rnic.0.msgs_sent", 10)
		f0.add("xrdma.0.keepalive_fails", 1)
		a0.Sample(sim.Time(i) * ms)
		a1.Sample(sim.Time(i) * ms)
	}
	incs := col.Incidents()
	if len(incs) != 2 || incs[1].Class != IncNodeDown {
		t.Fatalf("second incident: %v, want node-down", col.Digest())
	}
	got := dumps(incs[1])
	want := fmt.Sprintf("node=1 t=%v", last.Add(11*sim.Microsecond))
	if len(got) != 8 || !strings.HasSuffix(got[7], want) {
		t.Fatalf("node-down attached %d flight dumps %q, want the 8 retained, the last at %s", len(got), got, want)
	}
}

func TestExports(t *testing.T) {
	eng := sim.NewEngine()
	col := For(eng)
	a, f := newFakeNode(t, eng, 0, []TenantRef{{ID: 1, Label: "app"}})
	col.Watch(WatchConfig{})
	for i := 1; i <= 8; i++ {
		f.add("rnic.0.msgs_sent", 10)
		a.Sample(sim.Time(i) * sim.Time(sim.Millisecond))
	}
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"epoch": 8`) {
		t.Fatalf("JSON export lacks epoch: %s", buf.String())
	}
	buf.Reset()
	if err := col.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, frag := range []string{"xrmon_epochs 8", "xrmon_agents 1", "xrmon_incidents_open 0", `xrmon_node_window{node="0",metric="msgs_sent"}`} {
		if !strings.Contains(expo, frag) {
			t.Fatalf("prometheus export lacks %q:\n%s", frag, expo)
		}
	}
	tbl := col.FleetTable()
	if !strings.Contains(tbl, "NODE") || !strings.Contains(tbl, "fleet: epoch=8") {
		t.Fatalf("fleet table malformed:\n%s", tbl)
	}
}

// TestWatchConfigFieldBudget holds WatchConfig at the thresholds some world
// tunes; the rules' other thresholds are constants. Raising it is a
// regression to explain, like xrdma's TestChannelStructBudget.
func TestWatchConfigFieldBudget(t *testing.T) {
	got, most := reflect.TypeOf(WatchConfig{}).NumField(), 3
	t.Logf("xrmon.WatchConfig fields = %d (budget %d)", got, most)
	if got > most {
		t.Errorf("xrmon.WatchConfig has %d fields, budget %d", got, most)
	}
}
