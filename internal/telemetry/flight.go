package telemetry

import (
	"fmt"
	"strings"

	"xrdma/internal/sim"
)

// Category classifies flight-recorder events. Categories are small
// integers so recording stays allocation-free; String renders the
// protocol-level name a dump shows the operator.
type Category uint8

// Flight-recorder event categories, covering the Table II bug classes
// (drop, slow-op, leak, fallback) and the protocol invariants whose
// breach trips an automatic dump.
const (
	CatNone Category = iota
	CatFilterDrop
	CatSlowOp
	CatSlowPoll
	CatKeepaliveProbe
	CatKeepaliveFail
	CatMockSwitch
	CatRNRNakSent
	CatRNRNakRecv
	CatRNRStorm
	CatRetransmit
	CatRetryExhausted
	CatWindowStall
	CatDCQCNCut
	CatPFCPause
	CatQPState
	CatQPError
	CatReqTimeout
	CatChannelDegraded
	CatChannelRecovered
	CatFailback
	CatChaosFault
	CatChaosHeal
	CatCorruptDrop
	CatPathVerdict
	CatPathRehash
	CatReqRetry
	CatRemoteAccess
	CatTenantBudget
	CatTenantShed
	CatVerMismatch
	CatDrain
	catCount
)

var catNames = [catCount]string{
	CatNone:             "none",
	CatFilterDrop:       "filter.drop",
	CatSlowOp:           "slow.op",
	CatSlowPoll:         "slow.poll",
	CatKeepaliveProbe:   "keepalive.probe",
	CatKeepaliveFail:    "keepalive.fail",
	CatMockSwitch:       "mock.switch",
	CatRNRNakSent:       "rnr.nak.sent",
	CatRNRNakRecv:       "rnr.nak.recv",
	CatRNRStorm:         "rnr.storm",
	CatRetransmit:       "retransmit",
	CatRetryExhausted:   "retransmit.exhausted",
	CatWindowStall:      "window.stall",
	CatDCQCNCut:         "dcqcn.cut",
	CatPFCPause:         "pfc.pause",
	CatQPState:          "qp.state",
	CatQPError:          "qp.error",
	CatReqTimeout:       "req.timeout",
	CatChannelDegraded:  "ch.degraded",
	CatChannelRecovered: "ch.recovered",
	CatFailback:         "ch.failback",
	CatChaosFault:       "chaos.fault",
	CatChaosHeal:        "chaos.heal",
	CatCorruptDrop:      "corrupt.drop",
	CatPathVerdict:      "path.verdict",
	CatPathRehash:       "path.rehash",
	CatReqRetry:         "req.retry",
	CatRemoteAccess:     "remote.access",
	CatTenantBudget:     "tenant.budget",
	CatTenantShed:       "tenant.shed",
	CatVerMismatch:      "ver.mismatch",
	CatDrain:            "drain",
}

func (c Category) String() string {
	if int(c) < len(catNames) && catNames[c] != "" {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// FlightEvent is one fixed-size flight-recorder record. A and B carry
// category-specific detail (sizes, rates, states).
type FlightEvent struct {
	At   sim.Time
	Cat  Category
	Node int32
	QPN  uint32
	A, B int64
}

// Dump is a frozen copy of the recorder taken when an invariant
// tripped.
type Dump struct {
	Reason Category
	Note   string // optional, set by ForceDump
	At     sim.Time
	Node   int32
	QPN    uint32
	Blame  string // blame verdict frozen at dump time (see Flight.SetSummary)
	Events []FlightEvent
}

// String renders the dump with category names so the log names the
// culprit: the reason line first, then the recorded history
// oldest-first.
func (d *Dump) String() string {
	var b strings.Builder
	reason := d.Reason.String()
	if d.Note != "" {
		reason = d.Note
	}
	fmt.Fprintf(&b, "flight dump: reason=%s node=%d qpn=%d at=%v (%d events)\n",
		reason, d.Node, d.QPN, d.At, len(d.Events))
	if d.Blame != "" {
		fmt.Fprintf(&b, "  %s\n", d.Blame)
	}
	for _, e := range d.Events {
		fmt.Fprintf(&b, "  %12v %-20s node=%-3d qpn=%-6d a=%-10d b=%d\n",
			e.At, e.Cat.String(), e.Node, e.QPN, e.A, e.B)
	}
	return b.String()
}

// Flight is an always-on last-N-events recorder. Record is cheap enough
// to leave enabled everywhere; Trip freezes the history the moment a
// protocol invariant breaks.
type Flight struct {
	ring     *Ring[FlightEvent]
	dumps    []Dump
	maxDumps int
	summary  func() string
}

// SetSummary installs a callback evaluated at freeze time; its result
// is stored in the dump so the dump carries the state of the world —
// e.g. the blame verdict — at the instant the invariant tripped.
func (f *Flight) SetSummary(fn func() string) { f.summary = fn }

// DefaultFlightCap is the per-engine flight-recorder depth.
const DefaultFlightCap = 256

// NewFlight creates a recorder keeping the last capacity events and up
// to 8 dumps.
func NewFlight(capacity int) *Flight {
	return &Flight{ring: NewRing[FlightEvent](capacity), maxDumps: 8}
}

// Record appends one event, overwriting the oldest when full.
func (f *Flight) Record(at sim.Time, cat Category, node int32, qpn uint32, a, b int64) {
	f.ring.Push(FlightEvent{At: at, Cat: cat, Node: node, QPN: qpn, A: a, B: b})
}

// Trip records the breach itself, then freezes the recorder contents
// into a new Dump (keeping at most the last maxDumps dumps) and returns
// it.
func (f *Flight) Trip(at sim.Time, reason Category, node int32, qpn uint32) *Dump {
	f.Record(at, reason, node, qpn, 0, 0)
	return f.freeze(Dump{Reason: reason, At: at, Node: node, QPN: qpn})
}

// ForceDump freezes the recorder on demand (manual drills, tooling).
func (f *Flight) ForceDump(at sim.Time, note string) *Dump {
	return f.freeze(Dump{Reason: CatNone, Note: note, At: at})
}

func (f *Flight) freeze(d Dump) *Dump {
	d.Events = f.ring.Snapshot()
	if f.summary != nil {
		d.Blame = f.summary()
	}
	if len(f.dumps) >= f.maxDumps {
		copy(f.dumps, f.dumps[1:])
		f.dumps = f.dumps[:len(f.dumps)-1]
	}
	f.dumps = append(f.dumps, d)
	return &f.dumps[len(f.dumps)-1]
}

// Dumps returns the retained dumps, oldest first.
func (f *Flight) Dumps() []Dump { return f.dumps }

// Len reports live events currently in the ring.
func (f *Flight) Len() int { return f.ring.Len() }
