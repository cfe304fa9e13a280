package xrmon

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Window is the sliding-window depth of every agent's delta ring: each
// watched metric keeps its last Window per-tick deltas. At the default
// housekeeping cadence this is a few tens of milliseconds of history —
// enough for the detectors to smooth single-tick bursts without
// remembering stale symptoms past a heal.
const Window = 8

// Per-node slot indices into an agent's delta ring. The first NodeSlots
// slots are fixed for every agent; tenant slot blocks follow (see
// TenantSlot). Keep this table in sync with NodeWatchNames.
const (
	SlotMsgsSent = iota
	SlotMsgsRecv
	SlotBytesSent
	SlotBytesRecv
	SlotRetx
	SlotCorrupt
	SlotRNRSent
	SlotRNRRecv
	SlotCNPRecv
	SlotQPs
	SlotKaFails
	SlotChBroken
	SlotChannels
	SlotReqTimeouts
	SlotReqRetries
	SlotSlowPolls
	SlotDegraded
	SlotMemOccupied
	SlotMemInUse
	NodeSlots
)

// nodeSlotDef maps each node slot to its metric name suffix and which
// prefix (NIC counter vs middleware context) it lives under. gauge
// slots move both ways, so their deltas are not clamped on decrease.
var nodeSlotDef = [NodeSlots]struct {
	nic    bool
	suffix string
	gauge  bool
}{
	SlotMsgsSent:    {true, "msgs_sent", false},
	SlotMsgsRecv:    {true, "msgs_recv", false},
	SlotBytesSent:   {true, "bytes_sent", false},
	SlotBytesRecv:   {true, "bytes_recv", false},
	SlotRetx:        {true, "retransmits", false},
	SlotCorrupt:     {true, "corrupt_drops", false},
	SlotRNRSent:     {true, "rnr_nak_sent", false},
	SlotRNRRecv:     {true, "rnr_nak_recv", false},
	SlotCNPRecv:     {true, "cnp_recv", false},
	SlotQPs:         {true, "qps", true},
	SlotKaFails:     {false, "keepalive_fails", false},
	SlotChBroken:    {false, "channels_broken", false},
	SlotChannels:    {false, "channels", true},
	SlotReqTimeouts: {false, "req_timeouts", false},
	SlotReqRetries:  {false, "req_retries", false},
	SlotSlowPolls:   {false, "slow_polls", false},
	SlotDegraded:    {false, "degraded", true},
	SlotMemOccupied: {false, "mem_occupied", true},
	SlotMemInUse:    {false, "mem_inuse", true},
}

// Per-tenant slot offsets within one tenant block. Keep in sync with
// tenantSlotSuffix.
const (
	TSlotMemRejects = iota
	TSlotRateStalls
	TSlotSheds
	TSlotTxBytes
	TenantSlots
)

var tenantSlotSuffix = [TenantSlots]string{
	TSlotMemRejects: "mem_rejects",
	TSlotRateStalls: "rate_stalls",
	TSlotSheds:      "sheds",
	TSlotTxBytes:    "txbytes",
}

// Fleet-level slot indices: fabric-wide counters the collector samples
// once per epoch on its own internal agent.
const (
	FSlotPauseTx = iota
	FSlotECN
	FSlotDrops
	FSlotCorrupted
	FSlotDelivered
	FSlotDataBytes
	FleetSlots
)

var fleetSlotName = [FleetSlots]string{
	FSlotPauseTx:   "fabric.pause_tx",
	FSlotECN:       "fabric.ecn_marks",
	FSlotDrops:     "fabric.drops",
	FSlotCorrupted: "fabric.corrupted",
	FSlotDelivered: "fabric.delivered",
	FSlotDataBytes: "fabric.data_bytes",
}

// NodeWatchNames expands the node slot table into absolute metric names
// for one node: nicPrefix is the NIC counter family ("rnic.<id>.") and
// ctxPrefix the middleware family ("xrdma.<id>."). Exported so the
// rule-lint test can assert every name resolves against a live world.
func NodeWatchNames(nicPrefix, ctxPrefix string) []string {
	out := make([]string, NodeSlots)
	for i, def := range nodeSlotDef {
		if def.nic {
			out[i] = nicPrefix + def.suffix
		} else {
			out[i] = ctxPrefix + def.suffix
		}
	}
	return out
}

// TenantWatchNames expands one tenant's slot block into absolute names
// under "<ctxPrefix>tenant.<id>.".
func TenantWatchNames(ctxPrefix string, id uint16) []string {
	out := make([]string, TenantSlots)
	base := ctxPrefix + "tenant."
	for i, suffix := range tenantSlotSuffix {
		out[i] = base + itoa(int64(id)) + "." + suffix
	}
	return out
}

// FleetWatchNames lists the fabric-wide counters the collector samples.
func FleetWatchNames() []string {
	out := make([]string, FleetSlots)
	copy(out, fleetSlotName[:])
	return out
}

// itoa is a tiny allocation-free-enough int formatter for watch-list
// construction (attach time only, not the sampling path).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TenantRef names one tenant slot block on a node agent.
type TenantRef struct {
	ID    uint16
	Label string
}

// Agent is one node's sampler: a fixed watch list of registry metrics
// resolved to probes at attach and a per-slot sliding window of per-tick
// deltas. Sample is called from the context's existing housekeeping tick,
// so attaching an agent adds no engine events — the simulation with and
// without xrmon is bit-identical. The steady-state sampling path
// performs no allocations: rings and watermarks are preallocated and
// probe reads are map-free.
type Agent struct {
	// Node is the fabric node id, or -1 for the collector's internal
	// fleet-level agent.
	Node int32

	col    *Collector
	notify bool // drive the collector's epoch counter from Sample

	names   []string
	clamp   []bool // counter slots clamp negative deltas (resets) to 0
	probes  []telemetry.Probe
	missing int

	last []int64 // absolute watermark per slot
	ring []int64 // slot-major: ring[slot*Window+k]
	at   [Window]sim.Time
	idx  int // next ring column to write
	n    int // samples taken so far

	// active latches once the node has shown real traffic (used by the
	// node-down rule so never-loaded nodes cannot flatline-match).
	active bool

	tenants []TenantRef
}

func newAgent(col *Collector, node int32, names []string, clamp []bool, tenants []TenantRef, notify bool) *Agent {
	a := &Agent{
		Node:    node,
		col:     col,
		notify:  notify,
		names:   names,
		clamp:   clamp,
		probes:  make([]telemetry.Probe, len(names)),
		last:    make([]int64, len(names)),
		ring:    make([]int64, len(names)*Window),
		tenants: tenants,
	}
	a.Rebind()
	return a
}

// Rebind re-resolves every probe against the registry. Called when a
// context re-registers its gauge families (node restart re-creates the
// context): a resolved probe follows its slot through that, and a name
// the new instance registers for the first time resolves now.
func (a *Agent) Rebind() {
	a.missing = 0
	for i, name := range a.names {
		p, ok := a.col.set.Reg.Probe(name)
		a.probes[i] = p
		if !ok {
			a.missing++
		}
	}
}

// Sample reads every watched metric once and folds the delta since the
// previous tick into the ring. Steady state is 0 allocs/op: the only
// work is probe reads, integer subtraction and ring stores. Probes
// still missing (a gauge family registered after attach) are re-looked
// up by name — a map read, no allocation.
func (a *Agent) Sample(now sim.Time) {
	if a.missing > 0 {
		a.missing = 0
		for i := range a.probes {
			if !a.probes[i].Valid() {
				if p, ok := a.col.set.Reg.Probe(a.names[i]); ok {
					a.probes[i] = p
				} else {
					a.missing++
				}
			}
		}
	}
	col := a.idx
	for i := range a.probes {
		v := a.probes[i].Value()
		d := v - a.last[i]
		if d < 0 && a.clamp[i] {
			d = 0 // counter reset across a NIC restart
		}
		a.last[i] = v
		a.ring[i*Window+col] = d
	}
	a.at[col] = now
	a.idx = (col + 1) % Window
	a.n++
	if a.notify {
		a.col.noteSample(now)
	}
}

// Len reports how many ring columns hold real samples.
func (a *Agent) Len() int {
	if a.n < Window {
		return a.n
	}
	return Window
}

// Samples reports the total ticks observed (monotonic, beyond Window).
func (a *Agent) Samples() int { return a.n }

// Missing reports watch-list names that have not resolved yet.
func (a *Agent) Missing() int { return a.missing }

// Names returns the agent's watch list (absolute metric names, slot
// order). The slice is shared — callers must not mutate it.
func (a *Agent) Names() []string { return a.names }

// Tenants returns the tenant blocks in slot order.
func (a *Agent) Tenants() []TenantRef { return a.tenants }

// TenantSlot maps (tenant block t, per-tenant slot s) to a ring slot.
func (a *Agent) TenantSlot(t, s int) int { return NodeSlots + t*TenantSlots + s }

// At reports when the k-th most recent tick was sampled (0 = the latest,
// k < Len).
func (a *Agent) At(k int) sim.Time { return a.at[(a.idx+Window-1-k)%Window] }

// Abs reports the latest absolute value sampled for slot.
func (a *Agent) Abs(slot int) int64 { return a.last[slot] }

// Delta reports the most recent per-tick delta for slot.
func (a *Agent) Delta(slot int) int64 {
	if a.n == 0 {
		return 0
	}
	return a.ring[slot*Window+(a.idx+Window-1)%Window]
}

// LastN sums the most recent k per-tick deltas (k ≤ Window).
func (a *Agent) LastN(slot, k int) int64 {
	if k > a.Len() {
		k = a.Len()
	}
	var sum int64
	for j := 1; j <= k; j++ {
		sum += a.ring[slot*Window+(a.idx+Window-j)%Window]
	}
	return sum
}

// WindowSum sums every valid delta in the ring — the detectors' view
// of "recent activity" for slot.
func (a *Agent) WindowSum(slot int) int64 {
	var sum int64
	for _, d := range a.ring[slot*Window : (slot+1)*Window] {
		sum += d
	}
	return sum
}

// WindowRate reports slot's windowed delta per simulated second, for
// the fleet table. Zero until two samples span nonzero time.
func (a *Agent) WindowRate(slot int) float64 {
	n := a.Len()
	if n < 2 {
		return 0
	}
	newest := a.at[(a.idx+Window-1)%Window]
	oldest := a.at[(a.idx+Window-n)%Window]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(a.LastN(slot, n-1)) / span.Seconds()
}

// latchActive sets the activity flag once a round's deltas show traffic.
func (a *Agent) latchActive() {
	if !a.active && a.Delta(SlotMsgsSent)+a.Delta(SlotMsgsRecv) > 0 {
		a.active = true
	}
}
