// Package fabric simulates the Ethernet clos network X-RDMA runs over at
// Alibaba (§II-B of the paper): spine/leaf/ToR switches, ECMP routing,
// RED-style ECN marking for DCQCN, and priority flow control (PFC) for a
// lossless RoCEv2 fabric. Congestion phenomena — incast queue build-up,
// CNP-eligible marking, pause propagation — emerge from the queueing model
// rather than being scripted.
package fabric

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// NodeID identifies a host attached to the fabric.
type NodeID int

// Packet class. Control packets (CNPs, acks, pause frames) ride a strict
// high-priority class that PFC never pauses, mirroring how RoCEv2 deploys
// CNPs on a dedicated priority.
type Class uint8

const (
	// ClassData is PFC-protected lossless bulk traffic.
	ClassData Class = iota
	// ClassCtrl is high-priority control traffic (CNP, hardware acks).
	ClassCtrl
)

// EthOverhead is the per-frame wire overhead (preamble, headers, FCS, IFG)
// added to every packet's payload when computing serialization time.
const EthOverhead = 62

// Proto selects which host endpoint consumes a delivered packet: the RNIC,
// the connection-manager control plane, or the kernel TCP stack.
type Proto uint8

const (
	ProtoRDMA Proto = iota
	ProtoCM
	ProtoTCP
)

// Packet is one wire frame. RNICs segment messages into MTU-sized packets;
// the fabric never fragments further.
type Packet struct {
	Src, Dst NodeID
	Size     int    // payload bytes on the wire (excluding EthOverhead)
	FlowHash uint64 // ECMP key, stable per (QP, direction)
	Class    Class
	Proto    Proto

	ECT    bool // ECN-capable transport (DCQCN data packets)
	Marked bool // congestion experienced (set by switches)

	// Corrupt marks a frame whose payload was damaged in flight (chaos
	// injection). The fabric still delivers it — FCS checking happens at
	// the receiving NIC, which drops and counts it.
	Corrupt bool

	// Payload is opaque to the fabric; the RNIC model stores its
	// protocol header here.
	Payload any

	// SentAt is stamped by the sending host when the packet first hits
	// the wire; used for fabric-level latency accounting.
	SentAt sim.Time

	// Blame, when non-nil, is the packet's trace bit: an INT-style
	// per-message accumulator that every hop stamps egress-queue
	// residency, PFC-pause share and ECN marks into. Untraced packets
	// carry nil and the stamping branches never execute, keeping the
	// hot path untouched.
	Blame *telemetry.PktBlame

	// inPort tracks the ingress port inside the current device, for PFC
	// buffer accounting. Managed by the fabric only.
	inPort *Port

	// blameEnqAt / blamePauseRef record the current hop's enqueue time
	// and the egress port's cumulative pause time at enqueue, so dequeue
	// can attribute this hop's residency. Managed by ports, and only
	// when Blame is set.
	blameEnqAt    sim.Time
	blamePauseRef sim.Duration

	// hopTo plus the cached closure schedule the packet's one event per
	// hop — its arrival at the peer port's device — without allocating:
	// the closure captures only the packet and survives free-list
	// recycling. hopTo is the port that arrival is scheduled at — a packet
	// is in exactly one place, so the slot is never contended. Managed by
	// the fabric only.
	hopTo    *Port
	arriveFn func()
}

// arrive returns the packet's arrival continuation, built at its first hop
// so packets constructed directly by tests work too.
func (p *Packet) arrive() func() {
	if p.arriveFn == nil {
		p.arriveFn = func() {
			to := p.hopTo
			p.hopTo = nil
			to.owner.receive(p, to)
		}
	}
	return p.arriveFn
}

// wireSize is the number of bytes that occupy the link.
func (p *Packet) wireSize() int { return p.Size + EthOverhead }

// Endpoint consumes packets delivered to a host. The RNIC model implements
// this. Ownership contract: the packet is only valid for the duration of
// the HandlePacket call — the fabric recycles it immediately afterwards,
// so implementations must copy any fields (or payload references) they
// need beyond that point.
type Endpoint interface {
	HandlePacket(p *Packet)
}
