package fabric

import (
	"fmt"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Stats aggregates fabric-wide counters; the paper's Fig. 10 plots CNPs and
// TX pause frames, both of which originate here (marks) or at RNICs (CNPs).
type Stats struct {
	ECNMarks  int64 // data packets marked congestion-experienced
	PauseTX   int64 // PFC pause frames emitted
	Drops     int64 // tail drops (PFC off, buffer exhaustion, dead links)
	Delivered int64 // packets handed to endpoints
	DataBytes int64 // payload bytes delivered
	Corrupted int64 // frames damaged by chaos corruption injection
	Rerouted  int64 // packets ECMP re-hashed around a dead link
}

// Fabric owns the devices, links, global counters and the marking RNG.
type Fabric struct {
	Eng   *sim.Engine
	Stats Stats

	cfg      Config
	rng      *sim.RNG
	tel      *telemetry.Set
	hosts    map[NodeID]*Host
	switches []*Switch

	// downPorts counts port halves currently administratively down. While
	// zero (the healthy fabric — and every golden run), routing takes the
	// original fast path with no viability checks at all.
	downPorts int

	// pktFree recycles Packet structs: at steady state every hop of every
	// flow reuses the same handful of nodes instead of hammering the GC.
	pktFree []*Packet

	// OnDrop, when set, is handed the Payload of every packet the fabric
	// discards, before the packet is recycled: a dropped frame's protocol
	// header goes home to whoever pools it (the RNIC model installs this;
	// the fabric must not know the type).
	OnDrop func(payload any)
}

// drop is the fabric's one discard path: count it, free the cells the
// packet held, hand its payload back, recycle it. Callers bump their own
// per-device counter first.
func (f *Fabric) drop(p *Packet) {
	f.Stats.Drops++
	f.releaseIngress(p)
	if f.OnDrop != nil {
		f.OnDrop(p.Payload)
	}
	f.FreePacket(p)
}

// NewPacket returns a zeroed packet from the fabric's free-list (or a fresh
// one on a cold start). Senders fill it and pass it to Host.Send; the
// fabric reclaims it at its single termination point (delivery or drop).
func (f *Fabric) NewPacket() *Packet {
	if k := len(f.pktFree) - 1; k >= 0 {
		p := f.pktFree[k]
		f.pktFree[k] = nil
		f.pktFree = f.pktFree[:k]
		return p
	}
	return &Packet{}
}

// FreePacket zeroes p and returns it to the free-list. Callers must hold
// the only live reference; endpoints never retain packets past
// HandlePacket, so the delivery path can free unconditionally.
func (f *Fabric) FreePacket(p *Packet) {
	if p == nil {
		return
	}
	arrive := p.arriveFn
	*p = Packet{}
	p.arriveFn = arrive
	f.pktFree = append(f.pktFree, p)
}

// New creates an empty fabric; attach hosts and switches via the topology
// builders.
func New(eng *sim.Engine, cfg Config, seed uint64) *Fabric {
	f := &Fabric{
		Eng:   eng,
		cfg:   cfg,
		rng:   sim.NewRNG(seed),
		hosts: make(map[NodeID]*Host),
		tel:   telemetry.For(eng),
	}
	// Aggregate counters are plain fields; the registry reads them through
	// GaugeFuncs at snapshot time, so the packet path pays nothing. The
	// queue gauges iterate whatever switches the topology builder attaches
	// later — closures see the live slice.
	reg := f.tel.Reg
	reg.GaugeFunc("fabric.ecn_marks", func() int64 { return f.Stats.ECNMarks })
	reg.GaugeFunc("fabric.pause_tx", func() int64 { return f.Stats.PauseTX })
	reg.GaugeFunc("fabric.drops", func() int64 { return f.Stats.Drops })
	reg.GaugeFunc("fabric.delivered", func() int64 { return f.Stats.Delivered })
	reg.GaugeFunc("fabric.data_bytes", func() int64 { return f.Stats.DataBytes })
	reg.GaugeFunc("fabric.corrupted", func() int64 { return f.Stats.Corrupted })
	reg.GaugeFunc("fabric.rerouted", func() int64 { return f.Stats.Rerouted })
	reg.GaugeFunc("fabric.queue_bytes", func() int64 {
		var total int64
		for _, s := range f.switches {
			total += int64(s.QueueBytes())
		}
		return total
	})
	reg.GaugeFunc("fabric.max_port_queue", func() int64 {
		var m int64
		for _, s := range f.switches {
			if q := int64(s.MaxPortQueue()); q > m {
				m = q
			}
		}
		return m
	})
	return f
}

// Host returns the adapter for a node.
func (f *Fabric) Host(id NodeID) *Host { return f.hosts[id] }

// Hosts returns the number of attached hosts.
func (f *Fabric) Hosts() int { return len(f.hosts) }

// Switches exposes the switch list for monitoring tools.
func (f *Fabric) Switches() []*Switch { return f.switches }

// link wires two ports together full-duplex. A switch acts on a packet one
// pipeline delay after the wire hands it over, so that delay belongs to the
// hop into it; a host adapter sinks at once.
func (f *Fabric) link(a, b device, bps int64, prop sim.Duration) (pa, pb *Port) {
	pa = &Port{eng: f.Eng, owner: a, fab: f, bps: bps, propDelay: prop, hopDelay: prop}
	pb = &Port{eng: f.Eng, owner: b, fab: f, bps: bps, propDelay: prop, hopDelay: prop}
	pa.peer, pb.peer = pb, pa
	for _, pt := range [...]*Port{pa, pb} {
		pt.kickFn = func() { pt.kickArmed = false; pt.kick() }
		if _, ok := pt.peer.owner.(*Switch); ok {
			pt.hopDelay += switchDelay
		}
	}
	return pa, pb
}

// Host is a node's network adapter: a single logical port toward its ToR.
// The RNIC model sits on top via the Endpoint interface and does its own
// scheduling; the host port still serializes at line rate and honours PFC.
type Host struct {
	ID   NodeID
	fab  *Fabric
	port *Port
	eps  [3]Endpoint // indexed by Proto
}

func (h *Host) name() string { return fmt.Sprintf("host%d", h.ID) }

// Attach registers the RDMA packet consumer (the RNIC model).
func (h *Host) Attach(ep Endpoint) { h.AttachProto(ProtoRDMA, ep) }

// AttachProto registers the consumer for one protocol plane.
func (h *Host) AttachProto(proto Proto, ep Endpoint) { h.eps[proto] = ep }

// Fabric returns the fabric this host is attached to (packet-pool access
// for the protocol models riding on the host).
func (h *Host) Fabric() *Fabric { return h.fab }

// Send puts a packet on the wire toward its destination.
func (h *Host) Send(p *Packet) {
	p.SentAt = h.fab.Eng.Now()
	h.port.send(p)
}

// LinkBps reports the host link rate.
func (h *Host) LinkBps() int64 { return h.port.bps }

// TxQueueBytes reports bytes queued in the host egress port — the RNIC's
// view of local congestion.
func (h *Host) TxQueueBytes() int { return h.port.QueueBytes() }

// TxPaused reports whether the ToR has PFC-paused this host.
func (h *Host) TxPaused() bool { return h.port.Paused() }

func (h *Host) receive(p *Packet, in *Port) {
	// Host adapters sink packets immediately: the RNIC model applies its
	// own processing delays. No ingress PFC accounting at the host; the
	// RNIC is assumed to drain at line rate (RNR is modeled above, at
	// the queue-pair level, where the paper's issues live).
	h.fab.Stats.Delivered++
	if p.Class == ClassData {
		h.fab.Stats.DataBytes += int64(p.Size)
	}
	if ep := h.eps[p.Proto]; ep != nil {
		ep.HandlePacket(p)
	}
	// Delivery is the packet's end of life; endpoints copy what they keep.
	h.fab.FreePacket(p)
}

// Switch is a store-and-forward device with per-destination ECMP route
// tables computed by the topology builder.
type Switch struct {
	Label string
	Tier  int // 0=ToR, 1=leaf, 2=spine
	fab   *Fabric
	ports []*Port
	// routes[dst] is the candidate egress ports (ECMP set) toward host
	// dst, indexed by NodeID (hosts are numbered 0…n-1): no hash per hop.
	routes [][]*Port

	// Topology bookkeeping used by the route builder.
	pod       int
	uplinks   []*Port
	downlinks []downlink
	hostPorts []hostlink

	// down marks a failed switch: in-flight arrivals drop, and every
	// egress port is dead so neighbours' ECMP steers around it.
	down bool

	// Per-switch fault counters (chaos observability).
	Drops     int64 // packets this switch had to discard
	DeadDrops int64 // discarded because every candidate egress was dead
	Rerouted  int64 // re-hashed onto a live port after the primary died
}

func (s *Switch) name() string { return s.Label }

// QueueBytes sums queued bytes across all egress ports (monitoring).
func (s *Switch) QueueBytes() int {
	total := 0
	for _, p := range s.ports {
		total += p.QueueBytes()
	}
	return total
}

// MaxPortQueue reports the deepest egress queue (hotspot detection).
func (s *Switch) MaxPortQueue() int {
	m := 0
	for _, p := range s.ports {
		if q := p.QueueBytes(); q > m {
			m = q
		}
	}
	return m
}

// receive is the one instant a switch acts on a packet, switchDelay after
// the wire delivered it (Port.hopDelay): liveness, route, MMU admission
// against the ingress port and enqueue — with its ECN decision — on the
// egress port all happen here.
func (s *Switch) receive(p *Packet, in *Port) {
	var out *Port
	if !s.down {
		out = s.route(p)
	}
	if out == nil {
		// A dead switch sinks whatever was already in flight toward it;
		// a live one drops what it has no route for.
		s.Drops++
		s.fab.drop(p)
		return
	}
	in.accountIngress(p)
	out.send(p)
}

// routeViabilityDepth bounds the viability recursion: the longest clos
// path is tor→leaf→spine→leaf→tor→host, so looking four switches ahead
// sees every possible dead end.
const routeViabilityDepth = 4

// ecmpMix is the multiplicative mix every switch applies to a flow key
// before reducing it to a candidate index.
const ecmpMix = 0x9e3779b97f4a7c15

// ECMPIndex is the deterministic per-flow candidate choice among n
// equal-cost ports. Exported so path-aware tooling (the gray-failure
// doctor's experiments and drills) can predict which leaf a given QP
// flow key rides — ToR uplink candidates are appended in leaf order, so
// the index maps directly to "podX-leaf<idx>".
func ECMPIndex(hash uint64, n int) int {
	return int((hash * ecmpMix) % uint64(n))
}

// routesTo is the ECMP set toward dst, empty for a node the fabric does
// not have.
func (s *Switch) routesTo(dst NodeID) []*Port {
	if uint(dst) < uint(len(s.routes)) {
		return s.routes[dst]
	}
	return nil
}

func (s *Switch) route(p *Packet) *Port {
	cands := s.routesTo(p.Dst)
	if len(cands) == 0 {
		return nil
	}
	var pick *Port
	if len(cands) == 1 {
		pick = cands[0]
	} else {
		// ECMP: deterministic per-flow hash so a flow never reorders.
		pick = cands[ECMPIndex(p.FlowHash, len(cands))]
	}
	if s.fab.downPorts == 0 || s.viable(pick, p.Dst, routeViabilityDepth) {
		return pick
	}
	// Primary path is dead — either this very link or everything past the
	// next hop (a leaf that lost its only downlink to the destination
	// ToR, the converged-routing view a real fabric gets from its IGP
	// withdrawing the prefix). Re-hash the same flow key over the viable
	// subset so routing stays deterministic per flow, or drop if the
	// destination is unreachable from here.
	var liveArr [8]*Port
	live := liveArr[:0]
	for _, c := range cands {
		if s.viable(c, p.Dst, routeViabilityDepth) {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		s.DeadDrops++
		return nil
	}
	s.Rerouted++
	s.fab.Stats.Rerouted++
	return live[ECMPIndex(p.FlowHash, len(live))]
}

// viable reports whether pt can still make progress toward dst: the link
// is up and, when the next hop is a switch, that switch retains a viable
// route of its own. Clos route tables descend the hierarchy monotonically
// (up toward spines, then strictly down), so the recursion cannot loop.
func (s *Switch) viable(pt *Port, dst NodeID, depth int) bool {
	if !pt.linkUp() {
		return false
	}
	next, ok := pt.peer.owner.(*Switch)
	if !ok {
		return true // host port: delivery itself
	}
	if next.down {
		return false
	}
	if depth <= 0 {
		return true
	}
	for _, c := range next.routesTo(dst) {
		if next.viable(c, dst, depth-1) {
			return true
		}
	}
	return false
}
