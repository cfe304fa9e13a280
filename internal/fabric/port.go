package fabric

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// The deployment described in §VII ("Deployment at Alibaba"): dual-port
// 25 Gbps ConnectX-4 Lx hosts on a 3-tier clos with 100 Gbps fabric links.
// No world varies them, so they are constants rather than Config fields.
const (
	hostLinkBps   int64        = 25_000_000_000       // host–ToR link rate, bits/s
	fabricLinkBps int64        = 100_000_000_000      // switch–switch link rate, bits/s
	hostPropDelay sim.Duration = 200 * sim.Nanosecond // host–ToR propagation
	swPropDelay   sim.Duration = 500 * sim.Nanosecond // switch–switch propagation
	switchDelay   sim.Duration = 300 * sim.Nanosecond // per-hop forwarding latency

	ecnPmax float64 = 0.1 // marking probability at ECNKmaxBytes (DCQCN's Pmax)
)

// Config holds the fabric parameters a world may vary: the switch-side
// congestion signals and buffers.
type Config struct {
	// ECN (RED-like marking, DCQCN's Kmin/Kmax).
	ECNKminBytes int
	ECNKmaxBytes int

	// PFC thresholds on per-ingress-port buffer occupancy.
	PFCEnabled bool
	PFCXoff    int // pause above this many buffered bytes
	PFCXon     int // resume below this

	// Egress buffer cap per port; packets beyond it are dropped
	// (only reachable when PFC is disabled or control traffic floods).
	EgressCap int
}

// DefaultConfig returns DCQCN-style ECN thresholds and PFC on.
func DefaultConfig() Config {
	return Config{
		ECNKminBytes: 100 << 10,
		ECNKmaxBytes: 400 << 10,
		PFCEnabled:   true,
		PFCXoff:      512 << 10,
		PFCXon:       256 << 10,
		EgressCap:    4 << 20,
	}
}

// device is anything with ports: a switch or a host adapter.
type device interface {
	receive(p *Packet, in *Port)
	name() string
}

// Port is one side of a full-duplex link. It owns the egress queues for
// traffic leaving its device on that link.
type Port struct {
	eng   *sim.Engine
	owner device
	peer  *Port
	fab   *Fabric

	bps       int64
	propDelay sim.Duration // the wire alone: what a PFC frame takes
	hopDelay  sim.Duration // last bit to the peer acting: + switchDelay into a switch

	ctrlQ sim.Queue[*Packet]
	dataQ sim.Queue[*Packet]
	qlen  int // queued data bytes (for ECN marking decisions)

	paused bool // peer asked us to stop sending ClassData

	// busyUntil is the last bit of the frame most recently dequeued — all
	// the port keeps of a frame it put on the wire (DESIGN §6.1). kickArmed:
	// one kick is pending at busyUntil, never two; kickFn is its cached
	// continuation, so arming never allocates.
	busyUntil sim.Time
	kickArmed bool
	kickFn    func()

	// Cumulative pause accounting for blame tracing: how long this
	// port's data class has been PFC-paused in total. Updated only on
	// pause transitions, read only for traced packets.
	pausedAt    sim.Time
	pausedTotal sim.Duration

	// Fault-injection state (chaos). down kills the egress half of the
	// link: queued packets are flushed and new sends drop. lossRate and
	// corruptRate model a browned-out optic (applied per transmitted RDMA
	// data frame); extraDelay adds fixed latency to propagation.
	down        bool
	lossRate    float64
	corruptRate float64
	extraDelay  sim.Duration

	// unbounded marks host-side ports: the sender's RNIC regulates its
	// own queue, so the host egress never tail-drops.
	unbounded bool

	// Ingress-side PFC state: bytes buffered in this device that arrived
	// through this port, and whether we have told the upstream peer to
	// stop sending.
	ingressBytes int
	pauseSent    bool
	pfcPauseAt   sim.Time // when the current pause window opened

	// Counters.
	TxBytes   int64
	TxPackets int64
	Drops     int64
}

func (pt *Port) serialize(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 8 * int64(sim.Second) / pt.bps)
}

// QueueBytes reports currently queued data bytes (monitoring hook).
func (pt *Port) QueueBytes() int { return pt.qlen }

// Paused reports whether the peer has PFC-paused this port's data class.
func (pt *Port) Paused() bool { return pt.paused }

// linkUp reports whether both halves of the full-duplex link are alive.
func (pt *Port) linkUp() bool { return !pt.down && !pt.peer.down }

// setDown marks the egress half dead and flushes everything queued on it.
// In-flight frames (already serialized onto the wire) still deliver.
// Idempotent: the fabric-wide down-port count must stay exact, since a
// zero count is the routing fast path's licence to skip viability checks.
func (pt *Port) setDown() {
	if pt.down {
		return
	}
	pt.down = true
	pt.fab.downPorts++
	for pt.ctrlQ.Len() > 0 {
		pt.drop(pt.ctrlQ.Pop())
	}
	for pt.dataQ.Len() > 0 {
		p := pt.dataQ.Pop()
		pt.qlen -= p.wireSize()
		pt.drop(p)
	}
}

// setUp revives the egress half and restarts transmission.
func (pt *Port) setUp() {
	if !pt.down {
		return
	}
	pt.down = false
	pt.fab.downPorts--
	pt.kick()
}

// drop discards a packet this port will not transmit: flushed by a link
// going down, sent into a dead port, tail-dropped, or lost to a brownout.
func (pt *Port) drop(p *Packet) {
	pt.Drops++
	pt.fab.drop(p)
}

// pauseTotalAt reports cumulative data-class pause time through now.
func (pt *Port) pauseTotalAt(now sim.Time) sim.Duration {
	if pt.paused {
		return pt.pausedTotal + now.Sub(pt.pausedAt)
	}
	return pt.pausedTotal
}

// send enqueues a packet for transmission out of this port.
func (pt *Port) send(p *Packet) {
	if pt.down {
		pt.drop(p)
		return
	}
	if p.Blame != nil {
		// Trace bit set: stamp this hop's enqueue so dequeue can
		// attribute egress residency and its PFC-pause share.
		p.blameEnqAt = pt.eng.Now()
		p.blamePauseRef = pt.pauseTotalAt(p.blameEnqAt)
	}
	if p.Class == ClassCtrl {
		pt.ctrlQ.Push(p)
	} else {
		// With PFC on, ingress admission keeps buffers bounded and the
		// fabric is lossless; tail drops only exist in lossy mode.
		if !pt.unbounded && !pt.fab.cfg.PFCEnabled && pt.qlen+p.wireSize() > pt.fab.cfg.EgressCap {
			pt.drop(p)
			return
		}
		pt.markECN(p)
		pt.dataQ.Push(p)
		pt.qlen += p.wireSize()
	}
	pt.kick()
}

// markECN applies RED-style marking against the current egress queue depth,
// the switch-side half of DCQCN.
func (pt *Port) markECN(p *Packet) {
	if !p.ECT || p.Marked {
		return
	}
	cfg := pt.fab.cfg
	q := pt.qlen
	switch {
	case q <= cfg.ECNKminBytes:
		return
	case q >= cfg.ECNKmaxBytes:
		p.Marked = true
	default:
		frac := float64(q-cfg.ECNKminBytes) / float64(cfg.ECNKmaxBytes-cfg.ECNKminBytes)
		if pt.fab.rng.Float64() < frac*ecnPmax {
			p.Marked = true
		}
	}
	if p.Marked {
		pt.fab.Stats.ECNMarks++
		if p.Blame != nil {
			p.Blame.ECN++
		}
	}
}

// kick is the one instant a port acts on a frame. With the wire free it
// dequeues the next eligible frame (control first; data unless paused),
// holds the wire until its last bit, counts it, frees its ingress cells,
// draws the brownout impairments — only when a rate is configured, so the
// golden path never touches the RNG here, and only for RDMA data frames: the
// kernel TCP fallback is assumed to ride a separate, healthy NIC port — and
// schedules its arrival at the peer: one event per link on an idle path.
// With the wire busy, or traffic left behind, it arms one kick at busyUntil.
func (pt *Port) kick() {
	now := pt.eng.Now()
	for !pt.down && (pt.ctrlQ.Len() > 0 || pt.dataQ.Len() > 0 && !pt.paused) {
		if now < pt.busyUntil {
			if !pt.kickArmed {
				pt.kickArmed = true
				pt.eng.At(pt.busyUntil, pt.kickFn)
			}
			return
		}
		var p *Packet
		if pt.ctrlQ.Len() > 0 {
			p = pt.ctrlQ.Pop()
		} else {
			p = pt.dataQ.Pop()
			pt.qlen -= p.wireSize()
		}
		if p.Blame != nil {
			p.Blame.Queue += now.Sub(p.blameEnqAt)
			p.Blame.Pause += pt.pauseTotalAt(now) - p.blamePauseRef
		}
		pt.busyUntil = now.Add(pt.serialize(p.wireSize()))
		pt.TxBytes += int64(p.wireSize())
		pt.TxPackets++
		pt.fab.releaseIngress(p)
		impairable := p.Proto == ProtoRDMA && p.Class == ClassData
		if impairable && pt.lossRate > 0 && pt.fab.rng.Float64() < pt.lossRate {
			pt.drop(p) // it still occupied the wire
			continue
		}
		if impairable && pt.corruptRate > 0 && pt.fab.rng.Float64() < pt.corruptRate {
			p.Corrupt = true
			pt.fab.Stats.Corrupted++
		}
		p.hopTo = pt.peer
		pt.eng.At(pt.busyUntil.Add(pt.hopDelay+pt.extraDelay), p.arrive())
	}
}

// releaseIngress returns the packet's bytes to the ingress accounting of
// the device it is leaving — at dequeue, or at its drop — and lifts PFC if
// the buffer drained enough.
func (f *Fabric) releaseIngress(p *Packet) {
	in := p.inPort
	p.inPort = nil
	if in == nil || !f.cfg.PFCEnabled {
		return
	}
	in.ingressBytes -= p.wireSize()
	if in.pauseSent && in.ingressBytes <= f.cfg.PFCXon {
		in.pauseSent = false
		in.sendPFC(false)
	}
}

// accountIngress charges an arriving data packet against this ingress port
// and emits a pause frame if the threshold is crossed.
func (pt *Port) accountIngress(p *Packet) {
	if !pt.fab.cfg.PFCEnabled || p.Class != ClassData {
		return
	}
	p.inPort = pt
	pt.ingressBytes += p.wireSize()
	if !pt.pauseSent && pt.ingressBytes > pt.fab.cfg.PFCXoff {
		pt.pauseSent = true
		pt.sendPFC(true)
	}
}

// sendPFC delivers a pause/resume indication to the peer. Pause frames are
// tiny and ride the wire ahead of data; the model applies them after one
// propagation delay without occupying the queue.
func (pt *Port) sendPFC(pause bool) {
	now := pt.eng.Now()
	if pause {
		pt.fab.Stats.PauseTX++
		pt.pfcPauseAt = now
		pt.fab.tel.Flight.Record(now, telemetry.CatPFCPause, -1, 0, int64(pt.ingressBytes), 1)
	} else {
		// The window closes when the resume goes out; the span covers
		// the whole ingress-pressure episode on this port.
		pt.fab.tel.Trace.Complete("pfc.pause", "fabric", pt.pfcPauseAt, now.Sub(pt.pfcPauseAt), int64(pt.ingressBytes))
	}
	peer := pt.peer
	pt.eng.After(pt.propDelay, func() {
		if pause != peer.paused {
			if pause {
				peer.pausedAt = peer.eng.Now()
			} else {
				peer.pausedTotal += peer.eng.Now().Sub(peer.pausedAt)
			}
		}
		peer.paused = pause
		if !pause {
			peer.kick()
		}
	})
}
