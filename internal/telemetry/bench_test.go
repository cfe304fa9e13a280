package telemetry

import (
	"testing"

	"xrdma/internal/sim"
)

// The telemetry hot paths share the kernel's allocation discipline:
// scripts/bench.sh records these in BENCH_e2e.json, and its -check fails
// the build if any reports >0 allocs/op.

func BenchmarkTelemetryCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTelemetrySpanEmit(b *testing.B) {
	var tl Timeline
	tl.Enable(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Complete("rtt", "xrdma.0", 1000, 7165, int64(i))
	}
}

func BenchmarkTelemetryInstantEmit(b *testing.B) {
	var tl Timeline
	tl.Enable(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Instant("dcqcn.cut", "rnic.0", 1000, int64(i))
	}
}

func BenchmarkTelemetryBlameObserve(b *testing.B) {
	bl := &Blame{}
	rec := BlameRec{MsgID: 1, RTT: 7165}
	rec.Dur[StageSerialize] = 500
	rec.Dur[StageFabricQueue] = 3000
	rec.Dur[StageResidual] = 3665
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.MsgID = uint64(i)
		bl.Observe(&rec)
	}
}

func BenchmarkTelemetryFlightRecord(b *testing.B) {
	f := NewFlight(DefaultFlightCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Record(1000, CatRetransmit, 0, 7, int64(i), 0)
	}
}

// BenchmarkTelemetryFlightRecordTraced is Record with the timeline on: the
// record also lands there as an instant on its interned track.
func BenchmarkTelemetryFlightRecordTraced(b *testing.B) {
	s := For(sim.NewEngine())
	s.Trace.Enable(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Flight.Record(1000, CatRetransmit, 0, 7, int64(i), 0)
	}
}
