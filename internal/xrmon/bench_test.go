package xrmon

import (
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// BenchmarkAgentSample times one agent tick — the cost the fleet plane
// adds to every context housekeeping cycle. The CI kernel gate pins
// allocs/op to 0: probes are pre-resolved, the delta ring is
// preallocated, and epoch close-out (fleet sample + activity latch) is
// pure arithmetic.
func BenchmarkAgentSample(b *testing.B) {
	eng := sim.NewEngine()
	reg := telemetry.For(eng).Reg
	var live [64]int64
	k := 0
	mk := func(name string) {
		v := &live[k%len(live)]
		k++
		reg.GaugeFunc(name, func() int64 { return *v })
	}
	for _, name := range NodeWatchNames("rnic.0.", "xrdma.0.") {
		mk(name)
	}
	for _, name := range TenantWatchNames("xrdma.0.", 1) {
		mk(name)
	}
	for _, name := range FleetWatchNames() {
		mk(name)
	}
	col := For(eng)
	a := col.RegisterAgent(0, "rnic.0.", "xrdma.0.", []TenantRef{{ID: 1, Label: "app"}})
	if a.Missing() != 0 {
		b.Fatalf("%d probes unresolved", a.Missing())
	}

	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range live {
			live[j] += int64(j)
		}
		now += sim.Time(sim.Millisecond)
		a.Sample(now)
	}
}
