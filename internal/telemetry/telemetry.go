package telemetry

import "xrdma/internal/sim"

// Set bundles the telemetry facilities of one engine.
type Set struct {
	Reg    *Registry
	Trace  *Timeline
	Flight *Flight
	Blame  *Blame
}

type auxKey struct{}

// For returns the engine's telemetry Set, creating and attaching it on
// first use via the engine's Aux hook. Every layer (fabric, rnic,
// xrdma, bench, cmd tools) resolves the same Set for the same engine,
// and independent engines — one per `-j` worker — share nothing.
func For(eng *sim.Engine) *Set {
	return eng.AuxInit(auxKey{}, func() any {
		s := &Set{
			Reg:    NewRegistry(),
			Trace:  &Timeline{},
			Flight: NewFlight(DefaultFlightCap),
			Blame:  &Blame{},
		}
		// Every flight record also lands on the timeline while it is
		// enabled: one call per incident feeds both.
		s.Flight.tl = s.Trace
		// Invariant-trip dumps carry the blame verdict frozen at the
		// same instant as the event history.
		s.Flight.SetSummary(s.Blame.Summary)
		// The simulation kernel's own vitals, read at snapshot time.
		s.Reg.GaugeFunc("sim.fired", func() int64 { return int64(eng.Fired()) })
		s.Reg.GaugeFunc("sim.pending", func() int64 { return int64(eng.Pending()) })
		return s
	}).(*Set)
}
