package rnic

import (
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// The device's fixed costs and protocol constants, approximating a
// ConnectX-4 Lx class NIC. No world varies them, so they are constants
// rather than Config fields.
const (
	doorbellLatency sim.Duration = 250 * sim.Nanosecond // MMIO doorbell + WQE fetch over PCIe
	pktProcess      sim.Duration = 60 * sim.Nanosecond  // per-packet pipeline occupancy (TX)
	rxProcess       sim.Duration = 250 * sim.Nanosecond // per-packet RX processing + DMA
	completionCost  sim.Duration = 150 * sim.Nanosecond // CQE generation + host visibility

	mtu int = 4096

	ackEvery int          = 4                   // coalesce: ack every N packets
	ackDelay sim.Duration = 4 * sim.Microsecond // ...or after this delay

	cnpInterval sim.Duration = 50 * sim.Microsecond // min per-flow CNP spacing at the notification point

	// txBacklog limits how far ahead of the wire the engine runs: the
	// engine stalls while the host port has this many bytes queued.
	txBacklog int = 32 << 10
)

// Config holds the NIC parameters a world may vary: the RC reliability
// horizon and whether DCQCN runs.
type Config struct {
	RetransTimeout sim.Duration // RTO for go-back-N
	RetryLimit     int
	RNRTimer       sim.Duration // backoff after an RNR NAK
	RNRRetryLimit  int

	// DCQCN turns on the end-to-end congestion control loop: the
	// notification point's CNPs and the reaction point's rate cuts.
	DCQCN bool
}

// DefaultConfig returns ConnectX-4-like parameters.
func DefaultConfig() Config {
	return Config{
		// RC local-ack-timeout: real deployments run tens of ms (the IB
		// default is 2^14 x 4.096 us ~ 67 ms). 20 ms sits above the ack
		// delays a PFC pause storm can cause — tighter values make the
		// NIC retransmit spuriously under congestion and collapse.
		RetransTimeout: 20 * sim.Millisecond,
		RetryLimit:     6,
		RNRTimer:       60 * sim.Microsecond,
		RNRRetryLimit:  64, // "infinite" in production profiles; 7 breaks connections
		DCQCN:          true,
	}
}

// Counters aggregates NIC-wide statistics (XR-Stat's raw data).
type Counters struct {
	MsgsSent, MsgsRecv     int64
	BytesSent, BytesRecv   int64
	PktsSent, PktsRecv     int64
	AcksSent, AcksRecv     int64
	RNRNakSent, RNRNakRecv int64
	SeqNakSent, SeqNakRecv int64
	Retransmits            int64
	CNPSent, CNPRecv       int64
	AccessErrors           int64 // remote-access (rkey/bounds) violations, both ends
	LocalProtErrs          int64 // local scatter targets that resolved to no MR
	QPCacheMisses          int64
	QPCacheHits            int64
	CorruptDrops           int64
}

// txJob is one unit of engine work: transmit (part of) a WR's packets, or
// stream a read response.
type txJob struct {
	qp     *QP
	wr     *SendWR // nil for read responses
	isResp bool
	// read-response fields
	respTo  fabric.NodeID
	respQPN uint32
	readID  uint64
	stage   *stageBuf // the source range as it was at acceptance; nil for a zero-byte READ
	respLen int
	respPSN uint32 // requester PSN base the response stream carries
	// readyAt defers the job (responder-side rxProcess charge) without a
	// per-job closure; pickJob skips it until the time passes.
	readyAt sim.Time
	// progress
	offset int
	dead   bool
	pooled bool // on the free-list; guards against double-release
}

// NIC is one node's RDMA adapter.
type NIC struct {
	Node fabric.NodeID
	Mem  *Memory
	Cfg  Config

	eng  *sim.Engine
	host *fabric.Host
	fab  *fabric.Fabric
	pool *pools

	alive bool

	qps     sim.Table[QP] // by QPN; QPNs are issued in sequence and never reused
	nextQPN uint32

	// Transmit engine.
	jobs       []*txJob
	current    *txJob
	engineBusy bool
	rtxEpoch   uint64 // retransmitUnacked's mark: a WR stamped with the current value has a job

	// Cached engine continuations. The tx machine is strictly sequential —
	// at most one step is outstanding per NIC — so every per-packet
	// schedule reuses them instead of allocating.
	stepFn func()
	kickFn func()

	// Hardware command queue: QP create/modify commands serialize here
	// (the §VII-C establishment bottleneck). While cmdBusy the head is the
	// running command; cmdDoneFn, bound once, completes it.
	cmdBusy   bool
	cmds      sim.Queue[hwCmd]
	cmdDoneFn func()

	// QP context cache.
	cache qpCache

	// DCQCN notification point state: last CNP time per remote flow.
	lastCNP map[uint64]sim.Time

	Counters Counters

	// Telemetry: handles pre-resolved at creation so protocol code never
	// does a registry lookup. track ("rnic.N") prefixes this NIC's metric
	// names; its flight records land on the timeline track of that name.
	tel       *telemetry.Set
	track     string
	dcqcnCuts telemetry.Counter

	// FaultHook, when set, inspects every outbound packet; returning
	// false drops it, and a returned delay defers it. X-RDMA's Filter
	// (§VI-C) installs this.
	FaultHook func(p *fabric.Packet) (drop bool, delay sim.Duration)
}

// hwCmd is one queued hardware command. A QP creation carries its arguments
// and created; any other command its completion fn.
type hwCmd struct {
	cost    sim.Duration
	fn      func()
	created func(*QP)
	qp      qpArgs
}

// qpArgs is what a created QP is built from.
type qpArgs struct {
	sqCap, rqCap   int
	sendCQ, recvCQ *CQ
	srq            *SRQ
}

// New attaches a NIC to a fabric host.
func New(eng *sim.Engine, host *fabric.Host, cfg Config) *NIC {
	n := &NIC{
		Node:    host.ID,
		Mem:     NewMemory(),
		Cfg:     cfg,
		eng:     eng,
		host:    host,
		fab:     host.Fabric(),
		pool:    poolsFor(eng),
		alive:   true,
		nextQPN: 1,
		lastCNP: make(map[uint64]sim.Time),
		cache:   qpCache{cap: qpCacheLines},
		tel:     telemetry.For(eng),
	}
	n.stepFn = n.stepEngine
	n.kickFn = n.kickEngine
	n.cmdDoneFn = n.cmdDone
	n.track = fmt.Sprintf("rnic.%d", host.ID)
	n.dcqcnCuts = n.tel.Reg.Counter(n.track + ".dcqcn_cuts")
	n.registerGauges()
	host.Attach(n)
	// The pools are per engine, so whichever NIC installs the hook first
	// takes the dropped headers of all of them.
	if n.fab.OnDrop == nil {
		n.fab.OnDrop = n.pool.dropped
	}
	return n
}

// registerGauges exposes the NIC-wide counters through the registry.
// GaugeFuncs read the existing fields only at snapshot time, so the
// protocol hot paths keep their plain increments.
func (n *NIC) registerGauges() {
	reg, c := n.tel.Reg, &n.Counters
	for _, g := range []struct {
		name string
		fn   func() int64
	}{
		{"msgs_sent", func() int64 { return c.MsgsSent }},
		{"msgs_recv", func() int64 { return c.MsgsRecv }},
		{"bytes_sent", func() int64 { return c.BytesSent }},
		{"bytes_recv", func() int64 { return c.BytesRecv }},
		{"pkts_sent", func() int64 { return c.PktsSent }},
		{"pkts_recv", func() int64 { return c.PktsRecv }},
		{"acks_sent", func() int64 { return c.AcksSent }},
		{"acks_recv", func() int64 { return c.AcksRecv }},
		{"rnr_nak_sent", func() int64 { return c.RNRNakSent }},
		{"rnr_nak_recv", func() int64 { return c.RNRNakRecv }},
		{"seq_nak_sent", func() int64 { return c.SeqNakSent }},
		{"seq_nak_recv", func() int64 { return c.SeqNakRecv }},
		{"retransmits", func() int64 { return c.Retransmits }},
		{"cnp_sent", func() int64 { return c.CNPSent }},
		{"cnp_recv", func() int64 { return c.CNPRecv }},
		{"remote_access_errs", func() int64 { return c.AccessErrors }},
		{"local_prot_errs", func() int64 { return c.LocalProtErrs }},
		{"corrupt_drops", func() int64 { return c.CorruptDrops }},
		{"qp_cache_misses", func() int64 { return c.QPCacheMisses }},
		{"qp_cache_hits", func() int64 { return c.QPCacheHits }},
		{"qps", func() int64 { return int64(n.NumQPs()) }},
		{"cmd_queue", func() int64 { return int64(n.CmdQueueLen()) }},
	} {
		reg.GaugeFunc(n.track+"."+g.name, g.fn)
	}
}

// Engine exposes the simulation engine (middleware timers ride on it).
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Alive reports whether the NIC is operational.
func (n *NIC) Alive() bool { return n.alive }

// Crash silences the NIC: packets are dropped on the floor, exactly like a
// machine failure (§V-A: the peer side is never notified).
func (n *NIC) Crash() { n.alive = false }

// Revive restores a crashed NIC (host reboot).
func (n *NIC) Revive() { n.alive = true }

// Restart models the full machine reboot after a Crash: every QP flushes
// its outstanding work as errors, all registered memory is invalidated
// (a rebooted kernel holds no pins), and the adapter comes back alive.
// Software above must re-register memory and re-establish connections.
// The QPs flush in ascending QPN order, so completions they share a CQ
// through land in that order.
func (n *NIC) Restart() {
	for _, qp := range n.qps.All() {
		n.modifyQPNow(qp, QPError, 0, 0)
		// A rebooted adapter starts with pristine QP contexts. Leaving
		// recycled QPs in Error would poison the middleware's QP cache:
		// the next Get() would hand out a QP that can never leave Error.
		n.modifyQPNow(qp, QPReset, 0, 0)
	}
	n.Mem.InvalidateAll()
	n.lastCNP = make(map[uint64]sim.Time)
	n.alive = true
}

// LineBps returns the host link rate.
func (n *NIC) LineBps() int64 { return n.host.LinkBps() }

// QP returns the queue pair with the given number, or nil.
func (n *NIC) QP(qpn uint32) *QP { return n.qps.Get(uint64(qpn)) }

// NumQPs reports live queue pairs.
func (n *NIC) NumQPs() int { return n.qps.Len() }

// --- hardware command queue -------------------------------------------

// SubmitCmd serializes a hardware command; done fires when it completes,
// cost after the command ahead of it. The driver layer queues through it
// directly (verbs.CM's dials and accepts: the transition is applied with
// ModifyQPNow when done runs, so a cancelled dial can skip it). A caller
// that passes a callback bound once submits without allocating.
func (n *NIC) SubmitCmd(cost sim.Duration, done func()) {
	n.submit(hwCmd{cost: cost, fn: done})
}

func (n *NIC) submit(cmd hwCmd) {
	n.cmds.Push(cmd)
	n.pumpCmds()
}

func (n *NIC) pumpCmds() {
	if n.cmdBusy || n.cmds.Len() == 0 {
		return
	}
	n.cmdBusy = true
	n.eng.After(n.cmds.Items()[0].cost, n.cmdDoneFn)
}

// cmdDone completes the running command. The queue moves on first, so a
// command its callback submits queues behind the ones already waiting.
func (n *NIC) cmdDone() {
	cmd := n.cmds.Pop()
	n.cmdBusy = false
	if cmd.created != nil {
		a := cmd.qp
		cmd.created(n.AllocQPNow(a.sqCap, a.rqCap, a.sendCQ, a.recvCQ, a.srq))
	} else {
		cmd.fn()
	}
	n.pumpCmds()
}

// CmdQueueLen reports hardware commands waiting or running (diagnostics).
func (n *NIC) CmdQueueLen() int { return n.cmds.Len() }

// --- QP lifecycle -------------------------------------------------------

// QPCreateCost and per-transition modify cost reproduce the paper's
// establishment breakdown (3946 µs with creation, 2451 µs with the QP
// cache reusing an existing QP).
const (
	QPCreateCost = 1495 * sim.Microsecond
	QPModifyCost = 250 * sim.Microsecond
)

// CreateQP allocates a QP through the hardware command queue.
func (n *NIC) CreateQP(sqCap, rqCap int, sendCQ, recvCQ *CQ, srq *SRQ, done func(*QP)) {
	n.submit(hwCmd{cost: QPCreateCost, created: done, qp: qpArgs{sqCap, rqCap, sendCQ, recvCQ, srq}})
}

// AllocQPNow builds a QP at once: CreateQP's command calls it when its cost
// has passed, and code that models no command latency calls it directly.
func (n *NIC) AllocQPNow(sqCap, rqCap int, sendCQ, recvCQ *CQ, srq *SRQ) *QP {
	qp := &QP{
		QPN:       n.nextQPN,
		nic:       n,
		State:     QPReset,
		SQCap:     sqCap,
		RQCap:     rqCap,
		SendCQ:    sendCQ,
		RecvCQ:    recvCQ,
		srq:       srq,
		CreatedAt: n.eng.Now(),
	}
	sendCQ.eng, recvCQ.eng = n.eng, n.eng
	qp.rtoFn = qp.onRTO
	qp.ackFn = qp.sendAckNow
	qp.rnrFn = qp.rnrBackoffOver
	n.nextQPN++
	n.qps.Put(uint64(qp.QPN), qp)
	return qp
}

// modifyQPNow applies the transition immediately. Legal transitions are
// RESET→INIT→RTR→RTS plus any-state→ERROR and any-state→RESET (the QP-cache
// recycling path: ERROR flushes, RESET forgets); RTR wires the remote peer.
func (n *NIC) modifyQPNow(qp *QP, to QPState, remote fabric.NodeID, remoteQPN uint32) error {
	switch to {
	case QPError:
		// IBV_QPS_ERR: every outstanding WR completes FLUSHED. RESET alone
		// drops them without a completion, as the verbs spec says it does.
		qp.enterError(StatusFlushed)
		return nil
	case QPReset:
		// Reset clears all transient state; the QP cache uses this to
		// recycle QPs without paying creation cost again.
		n.dropJobsFor(qp)
		n.eng.Cancel(qp.rtoEvent)
		n.eng.Cancel(qp.ackTimer)
		qp.rate.stop()
		for id, st := range qp.pendingReads {
			delete(qp.pendingReads, id)
			n.pool.putReadState(st)
		}
		if qp.assemble != nil {
			n.pool.putAsm(qp.assemble)
		}
		keep := *qp
		*qp = QP{QPN: qp.QPN, nic: n, State: QPReset, SQCap: qp.SQCap, RQCap: qp.RQCap,
			SendCQ: qp.SendCQ, RecvCQ: qp.RecvCQ, srq: qp.srq, CreatedAt: qp.CreatedAt,
			lru: qp.lru} // the context cache's line survives
		// The cached closures survive recycling. The receive and send
		// queues keep their storage, emptied: a recycled QP posts as deep
		// again without allocating.
		qp.rtoFn, qp.ackFn, qp.rnrFn, qp.rq = keep.rtoFn, keep.ackFn, keep.rnrFn, keep.rq
		qp.rq.reset()
		qp.sq, qp.unacked = emptied(keep.sq), emptied(keep.unacked)
	case QPInit:
		if qp.State != QPReset {
			return fmt.Errorf("%w: %v → INIT", ErrQPState, qp.State)
		}
		qp.State = QPInit
	case QPRTR:
		if qp.State != QPInit {
			return fmt.Errorf("%w: %v → RTR", ErrQPState, qp.State)
		}
		qp.RemoteNode = remote
		qp.RemoteQPN = remoteQPN
		qp.flowBase = uint64(n.Node)<<40 ^ uint64(remote)<<20 ^ uint64(qp.QPN)
		qp.flowLabel = 0
		qp.flowHash = qp.flowBase
		qp.State = QPRTR
	case QPRTS:
		if qp.State != QPRTR {
			return fmt.Errorf("%w: %v → RTS", ErrQPState, qp.State)
		}
		qp.State = QPRTS
	default:
		return fmt.Errorf("%w: cannot modify to %v", ErrQPState, to)
	}
	n.tel.Flight.Record(n.eng.Now(), telemetry.CatQPState, int32(n.Node), qp.QPN, int64(to), 0)
	return nil
}

// ModifyQPNow applies a transition at once: setup code, tests, and the
// callback of a transition queued with SubmitCmd at QPModifyCost.
func (n *NIC) ModifyQPNow(qp *QP, to QPState, remote fabric.NodeID, remoteQPN uint32) error {
	return n.modifyQPNow(qp, to, remote, remoteQPN)
}

// ModifyFlowLabel rewrites a connected QP's flow label — the RoCEv2
// UDP-source-port rotation trick: the connection identity is untouched,
// but every subsequent packet carries a different ECMP flow key, so the
// fabric's deterministic per-flow hash steers the flow onto a different
// equal-cost path. A plain attribute write on the driver fast path, not a
// serialized hardware command: in-flight packets keep the old key and
// go-back-N absorbs any reordering across the switch.
func (n *NIC) ModifyFlowLabel(qpn uint32, label uint64) error {
	qp := n.qps.Get(uint64(qpn))
	if qp == nil {
		return fmt.Errorf("rnic: ModifyFlowLabel: no QP %d", qpn)
	}
	if qp.State != QPRTR && qp.State != QPRTS {
		return fmt.Errorf("%w: %v (flow label needs RTR/RTS)", ErrQPState, qp.State)
	}
	qp.flowLabel = label
	if label == 0 {
		qp.flowHash = qp.flowBase
		return nil
	}
	qp.flowHash = qp.flowBase ^ (label*0x9e3779b97f4a7c15 | 1)
	return nil
}

// DestroyQP releases the QP entirely, flushing what it still has in flight.
func (n *NIC) DestroyQP(qp *QP) {
	n.modifyQPNow(qp, QPError, 0, 0)
	qp.rate.stop()
	n.qps.Delete(uint64(qp.QPN))
}

// ConnectLoopback is a test/bench helper: builds a connected QP pair
// between two NICs with zero setup latency.
func ConnectLoopback(a, b *NIC, depth int) (*QP, *QP) {
	qa := a.AllocQPNow(depth, depth, NewCQ(depth*2), NewCQ(depth*2), nil)
	qb := b.AllocQPNow(depth, depth, NewCQ(depth*2), NewCQ(depth*2), nil)
	for _, step := range []QPState{QPInit, QPRTR, QPRTS} {
		if err := a.ModifyQPNow(qa, step, b.Node, qb.QPN); err != nil {
			panic(err)
		}
		if err := b.ModifyQPNow(qb, step, a.Node, qa.QPN); err != nil {
			panic(err)
		}
	}
	return qa, qb
}
