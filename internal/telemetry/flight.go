package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"xrdma/internal/sim"
)

// Category classifies flight-recorder events. Categories are small
// integers so recording stays allocation-free; String renders the
// protocol-level name a dump shows the operator.
type Category uint8

// Flight-recorder event categories, covering the Table II bug classes
// (drop, slow-op, leak, fallback), the faults and state changes that
// explain them, and the protocol invariants whose breach trips an
// automatic dump.
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
	CatPathRehash // A counts rotations; B is the new label's low bits (odd), or 0: the rotation failed
	CatReqRetry
	CatRemoteAccess
	CatTenantBudget
	CatTenantShed
	CatVerMismatch
	CatDrain
	CatPathHint
	CatLinkState   // a fabric link set down (A=0) or up (A=1)
	CatSwitchState // a switch failed (A=0) or restored (A=1); B is its tier
	CatIntegrity   // an inbound frame xrdma could not parse or route, or an overwritten buffer canary; A says which
	CatLinkLost    // a link beyond recovery: A is the peer, B the riders that died with it
	catCount
)

// layer is the part of the stack a category's records come from. On the
// timeline a record lands on its layer's track: the recording node's
// "rnic.N" or "xrdma.N", or the one "fabric" or "chaos" track.
type layer uint8

const (
	layerXRDMA layer = iota
	layerRNIC
	layerFabric
	layerChaos
	layerCount
)

var layerNames = [layerCount]string{layerXRDMA: "xrdma", layerRNIC: "rnic", layerFabric: "fabric", layerChaos: "chaos"}

var cats = [catCount]struct {
	name  string
	layer layer
}{
	CatNone:             {"none", layerXRDMA},
	CatFilterDrop:       {"filter.drop", layerXRDMA},
	CatSlowOp:           {"slow.op", layerXRDMA},
	CatSlowPoll:         {"slow.poll", layerXRDMA},
	CatKeepaliveProbe:   {"keepalive.probe", layerXRDMA},
	CatKeepaliveFail:    {"keepalive.fail", layerXRDMA},
	CatMockSwitch:       {"mock.switch", layerXRDMA},
	CatRNRNakSent:       {"rnr.nak.sent", layerRNIC},
	CatRNRNakRecv:       {"rnr.nak.recv", layerRNIC},
	CatRNRStorm:         {"rnr.storm", layerRNIC},
	CatRetransmit:       {"retransmit", layerRNIC},
	CatRetryExhausted:   {"retransmit.exhausted", layerRNIC},
	CatWindowStall:      {"window.stall", layerXRDMA},
	CatDCQCNCut:         {"dcqcn.cut", layerRNIC},
	CatPFCPause:         {"pfc.pause", layerFabric},
	CatQPState:          {"qp.state", layerRNIC},
	CatQPError:          {"qp.error", layerRNIC},
	CatReqTimeout:       {"req.timeout", layerXRDMA},
	CatChannelDegraded:  {"ch.degraded", layerXRDMA},
	CatChannelRecovered: {"ch.recovered", layerXRDMA},
	CatFailback:         {"ch.failback", layerXRDMA},
	CatChaosFault:       {"chaos.fault", layerChaos},
	CatChaosHeal:        {"chaos.heal", layerChaos},
	CatCorruptDrop:      {"corrupt.drop", layerRNIC},
	CatPathVerdict:      {"path.verdict", layerXRDMA},
	CatPathRehash:       {"path.rehash", layerXRDMA},
	CatReqRetry:         {"req.retry", layerXRDMA},
	CatRemoteAccess:     {"remote.access", layerRNIC},
	CatTenantBudget:     {"tenant.budget", layerXRDMA},
	CatTenantShed:       {"tenant.shed", layerXRDMA},
	CatVerMismatch:      {"ver.mismatch", layerXRDMA},
	CatDrain:            {"drain", layerXRDMA},
	CatPathHint:         {"path.hint", layerXRDMA},
	CatLinkState:        {"link.state", layerFabric},
	CatSwitchState:      {"switch.state", layerFabric},
	CatIntegrity:        {"integrity", layerXRDMA},
	CatLinkLost:         {"link.lost", layerXRDMA},
}

func (c Category) String() string {
	if int(c) < len(cats) && cats[c].name != "" {
		return cats[c].name
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
	Seq    uint64 // 1 for the recorder's first dump; never reused, so a reader can resume past the 8 retained
	Reason Category
	Note   string // optional, set by ForceDump
	At     sim.Time
	Node   int32
	QPN    uint32
	Blame  string // blame verdict frozen at dump time (see Flight.SetSummary)
	Events []FlightEvent
	Lost   uint64 // events the ring had overwritten when it froze: the history before Events
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
	lost := ""
	if d.Lost > 0 {
		lost = fmt.Sprintf(", %d lost", d.Lost)
	}
	fmt.Fprintf(&b, "flight dump: reason=%s node=%d qpn=%d at=%v (%d events%s)\n",
		reason, d.Node, d.QPN, d.At, len(d.Events), lost)
	if d.Blame != "" {
		fmt.Fprintf(&b, "  %s\n", d.Blame)
	}
	for _, e := range d.Events {
		fmt.Fprintf(&b, "  %12v %-20s node=%-3d qpn=%-6d a=%-10d b=%d\n",
			e.At, e.Cat.String(), e.Node, e.QPN, e.A, e.B)
	}
	return b.String()
}

// Flight is an always-on last-N-events recorder: the one incident log
// of an engine. Record is cheap enough to leave enabled everywhere; Trip
// freezes the history the moment a protocol invariant breaks. The
// recorder telemetry.For attaches also mirrors each record onto the
// engine's timeline while the timeline is enabled, so an incident is
// recorded once and seen in both.
type Flight struct {
	ring     *Ring[FlightEvent]
	dumps    []Dump
	maxDumps int
	frozen   uint64 // dumps ever frozen: the last one's Seq
	summary  func() string

	tl     *Timeline            // the mirror; nil for a bare NewFlight
	tracks [layerCount][]string // interned "rnic.N"/"xrdma.N" track names, by node
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

// Record appends one event, overwriting the oldest when full. With the
// mirror's timeline enabled the event also lands there as an instant
// named after its category, on its layer's track, carrying A.
func (f *Flight) Record(at sim.Time, cat Category, node int32, qpn uint32, a, b int64) {
	f.ring.Push(FlightEvent{At: at, Cat: cat, Node: node, QPN: qpn, A: a, B: b})
	if f.tl != nil && f.tl.enabled {
		f.tl.Instant(cats[cat].name, f.track(cats[cat].layer, node), at, a)
	}
}

// track names layer l's timeline track for node, interning per-node names
// on first use so that a record allocates nothing after it.
func (f *Flight) track(l layer, node int32) string {
	if l == layerFabric || l == layerChaos || node < 0 {
		return layerNames[l]
	}
	t := f.tracks[l]
	if int(node) >= len(t) {
		t = append(t, make([]string, int(node)+1-len(t))...)
		f.tracks[l] = t
	}
	if t[node] == "" {
		t[node] = layerNames[l] + "." + strconv.Itoa(int(node))
	}
	return t[node]
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
	f.frozen++
	d.Seq = f.frozen
	d.Events, d.Lost = f.ring.Snapshot(), f.ring.Dropped()
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

// Dumps returns the retained dumps, oldest first. Older ones are gone:
// a reader that remembers the last Seq it read finds the new ones by Seq,
// never by index.
func (f *Flight) Dumps() []Dump { return f.dumps }
