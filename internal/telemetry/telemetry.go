package telemetry

import "xrdma/internal/sim"

// Set bundles the telemetry facilities of one engine.
type Set struct {
	Reg    *Registry
	Trace  *Timeline
	Flight *Flight
	Blame  *Blame

	eng *sim.Engine
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
			eng:    eng,
		}
		// Invariant-trip dumps carry the blame verdict frozen at the
		// same instant as the event history.
		s.Flight.SetSummary(s.Blame.Summary)
		// The simulation kernel's own vitals, read at snapshot time.
		s.Reg.GaugeFunc("sim.fired", func() int64 { return int64(eng.Fired()) })
		s.Reg.GaugeFunc("sim.pending", func() int64 { return int64(eng.Pending()) })
		return s
	}).(*Set)
}

// Now returns the engine's current simulated time — the timestamp every
// record in this Set is keyed by.
func (s *Set) Now() sim.Time { return s.eng.Now() }
