// Package telemetry is the cross-layer observability subsystem: a
// metrics registry (counters, gauges, log₂-bucket histograms), a
// timeline tracer exportable as Chrome trace_event JSON, and an
// always-on flight recorder dumped when a protocol invariant trips. The
// flight recorder is the one incident log: each incident is one Record,
// which also lands on the engine's timeline while the timeline is enabled.
//
// State is engine-keyed: telemetry.For(eng) attaches one Set per
// sim.Engine through Engine.Aux, so concurrent experiments share
// nothing and a parallel reproduce run stays bit-identical.
//
// Determinism contract: telemetry is entirely passive. It never
// schedules engine events and never consumes random numbers — it only
// reads and writes plain fields — so golden-seed results are unchanged
// whether the tracer is enabled or not. Hot-path entry points
// (Counter.Add, Histogram.Observe, Timeline.Instant/Complete,
// Flight.Record) are allocation-free: handles are pre-resolved at
// registration time and rings are pre-sized, so no map lookup or heap
// growth happens per event.
package telemetry
