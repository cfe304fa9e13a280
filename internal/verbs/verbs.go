// Package verbs is the libverbs/librdmacm-shaped facade over the RNIC
// model: the API layer X-RDMA (and the baseline middlewares) program
// against, mirroring the "complex ritual" §II-A describes — context, PD,
// MR registration, QP creation, state modification, posting and polling.
//
// The connection manager reproduces librdmacm's cost structure: QP
// creation and state transitions serialize on the NIC's hardware command
// queue, address resolution and the REQ/REP/RTU rendezvous ride the
// control plane. That is what makes establishment slow (§III Issue 3) and
// what X-RDMA's QP cache attacks.
package verbs

import (
	"errors"
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// Context is the device context (ibv_context analogue).
type Context struct {
	NIC *rnic.NIC
	Eng *sim.Engine
}

// Open wraps a NIC.
func Open(nic *rnic.NIC) *Context {
	return &Context{NIC: nic, Eng: nic.Engine()}
}

// PD is a protection domain. The model keeps one memory registry per NIC;
// the PD exists to mirror the API shape and to count registrations per
// owner.
type PD struct {
	ctx *Context
	MRs int
}

// AllocPD creates a protection domain.
func (c *Context) AllocPD() *PD { return &PD{ctx: c} }

// ModifyFlowLabel rotates a QP's ECMP flow label (the RoCEv2
// UDP-source-port trick). Unlike ModifyQP this is a driver fast-path
// attribute write: it does not serialize on the hardware command queue.
func (c *Context) ModifyFlowLabel(qpn uint32, label uint64) error {
	return c.NIC.ModifyFlowLabel(qpn, label)
}

// RegMR registers size bytes and calls done when the driver finishes
// (registration is a real, slow syscall: cost from rnic.RegCost).
func (pd *PD) RegMR(size int, mode rnic.RegMode, done func(*rnic.MR)) {
	pd.MRs++
	mr := pd.ctx.NIC.Mem.Register(size, mode)
	pd.ctx.Eng.After(rnic.RegCost(size, mode), func() { done(mr) })
}

// RegMRNow registers without modelling driver latency (setup-time use).
func (pd *PD) RegMRNow(size int, mode rnic.RegMode) *rnic.MR {
	pd.MRs++
	return pd.ctx.NIC.Mem.Register(size, mode)
}

// DeregMR releases a region.
func (pd *PD) DeregMR(mr *rnic.MR) {
	pd.MRs--
	pd.ctx.NIC.Mem.Deregister(mr)
}

// --- connection manager ---------------------------------------------------

// ResolveCost models rdma_resolve_addr + rdma_resolve_route.
const ResolveCost = 700 * sim.Microsecond

// CMNetwork is the rendezvous control plane connecting every node's CM —
// the role the IP network plays for librdmacm.
type CMNetwork struct {
	cms map[fabric.NodeID]*CM
}

// NewCMNetwork creates an empty control plane.
func NewCMNetwork() *CMNetwork {
	return &CMNetwork{cms: make(map[fabric.NodeID]*CM)}
}

// CM is one node's connection manager.
type CM struct {
	ctx  *Context
	net  *CMNetwork
	host *fabric.Host

	listeners map[int]func(*ConnReq)
	nextMsgID uint64
	pending   map[uint64]*Dial // REQ sent, REP/REJ awaited

	// The step machines, recycled (recycle) once the caller's handle is spent,
	// no step is queued and the last message they sent has landed.
	dials sim.FreeList[*Dial]
	reqs  sim.FreeList[*ConnReq]

	// EstablishedConns counts successful connects+accepts (monitoring).
	EstablishedConns int64
}

// ConnReq is an inbound connection request delivered to a listener. The
// listener's handle is valid until Accept's done returns or Reject is called:
// then the request goes back to the CM's free list, once its REP or REJ landed.
type ConnReq struct {
	cm          *CM
	From        fabric.NodeID
	FromQPN     uint32
	Port        int
	msgID       uint64
	PrivateData []byte

	// ReplyData, when set before Accept, rides the REP back to the dialer
	// (librdmacm's responder private data) and surfaces as Conn.PeerData —
	// the channel layer's version-negotiation verdict travels here. Nil
	// keeps the REP byte-identical to the legacy exchange.
	ReplyData []byte

	// Accept's step machine: the QP it drives, the transition queued next,
	// and step bound once. The REP (or a REJ) and the Conn are made in place,
	// so a recycled request allocates nothing.
	qp     *rnic.QP
	next   rnic.QPState
	done   func(*Conn, error)
	stepFn func()
	rep    cmMsg
	conn   Conn

	settled, queued, flying bool // handle spent; a step queued; rep in flight
}

// Conn is an established RC connection, valid only while the done it is
// handed to runs (it lives in the Dial or ConnReq, which the CM recycles).
type Conn struct {
	QP     *rnic.QP
	Remote fabric.NodeID
	// PeerData is the responder's REP private data (nil on legacy accepts).
	PeerData []byte
}

// Dial is the handle of one Connect in flight (rdma_cm_id analogue): what
// CM.Cancel takes to abandon it, valid until done returns or Cancel is called.
// It is also the dial's step machine: stage names what the resolve timer or
// the queued command is for, and step, bound once to stepFn, runs when it
// completes. The CM recycles it once no step is queued and its last message
// landed; a lost message forfeits the reuse.
type Dial struct {
	cm      *CM
	id      uint64   // REQ message id (0 until the REQ leaves)
	qp      *rnic.QP // nil until a CM-created QP exists
	created bool     // the CM created qp itself (no recycled QP was passed)
	settled bool     // done was called, or the dial was cancelled
	queued  bool     // the resolve timer or a command is pending for stepFn
	flying  bool     // msg is in flight
	stage   dialStage
	stepFn  func()
	done    func(*Conn, error)

	// What the REQ and a created QP are made from.
	remote         fabric.NodeID
	port, depth    int
	private        []byte
	sendCQ, recvCQ *rnic.CQ
	srq            *rnic.SRQ

	// What the REP brought.
	peer     fabric.NodeID
	peerQPN  uint32
	peerData []byte

	// Made in place: the REQ, then the RTU (the REQ was delivered before the
	// REP that sends the RTU came back), and the connection done receives.
	msg  cmMsg
	conn Conn
}

// dialStage is the step a dial waits for.
type dialStage uint8

const (
	dialResolve dialStage = iota // address and route resolution (ResolveCost)
	dialCreate                   // QP creation on the command queue
	dialInit                     // RESET → INIT; the REQ leaves after it
	dialRTR                      // the REP came: INIT → RTR
	dialRTS                      // RTR → RTS; the RTU leaves after it
)

// cmMsg is the REQ/REP/RTU control payload. One made in place names the
// Dial or ConnReq it lives in, which hears it land.
type cmMsg struct {
	kind    uint8 // 0 REQ, 1 REP, 2 RTU, 3 REJ
	msgID   uint64
	port    int
	qpn     uint32
	private []byte
	errText string
	dial    *Dial
	req     *ConnReq
}

// NewCM attaches a connection manager to a node.
func NewCM(ctx *Context, net *CMNetwork, host *fabric.Host) *CM {
	cm := &CM{
		ctx: ctx, net: net, host: host,
		listeners: make(map[int]func(*ConnReq)),
		pending:   make(map[uint64]*Dial),
	}
	host.AttachProto(fabric.ProtoCM, cm)
	net.cms[host.ID] = cm
	return cm
}

// Listen registers a handler for inbound requests on a port.
func (cm *CM) Listen(port int, handler func(*ConnReq)) error {
	if _, dup := cm.listeners[port]; dup {
		return fmt.Errorf("verbs: port %d already listening", port)
	}
	cm.listeners[port] = handler
	return nil
}

// Unlisten releases a port so a restarted middleware on the same node can
// re-register its listeners. Unknown ports are a no-op.
func (cm *CM) Unlisten(port int) {
	delete(cm.listeners, port)
}

// Trim leaves to the collector the step machines that sat free since the last
// Trim (sim.FreeList): the owner's housekeeping calls it once per idle horizon.
func (cm *CM) Trim() {
	cm.dials.Trim()
	cm.reqs.Trim()
}

// send ships a CM control message over the fabric's control class.
func (cm *CM) send(to fabric.NodeID, m *cmMsg) {
	p := cm.host.Fabric().NewPacket()
	p.Src, p.Dst, p.Size = cm.host.ID, to, 64+len(m.private)
	p.Class, p.Proto = fabric.ClassCtrl, fabric.ProtoCM
	p.FlowHash, p.Payload = uint64(cm.host.ID)<<32^uint64(to), m
	cm.host.Send(p)
}

// Connect establishes an RC connection to (remote, port). If recycledQP is
// non-nil it is reused — X-RDMA's QP cache path — skipping the expensive
// creation command. done receives the connection after the full
// REQ/REP/RTU rendezvous. A dial that ends in a REJ or a failed transition
// destroys the QP the CM created for it; a recycled QP stays the caller's
// to release. The returned handle cancels the dial (Cancel).
func (cm *CM) Connect(remote fabric.NodeID, port int, privateData []byte, recycledQP *rnic.QP, depth int, sendCQ, recvCQ *rnic.CQ, srq *rnic.SRQ, done func(*Conn, error)) *Dial {
	d := cm.dials.Take(func() (d *Dial) {
		d = &Dial{cm: cm}
		d.stepFn, d.msg.dial = d.step, d
		return d
	})
	d.qp, d.created, d.done, d.queued = recycledQP, recycledQP == nil, done, true
	d.remote, d.port, d.depth, d.private = remote, port, depth, privateData
	d.sendCQ, d.recvCQ, d.srq = sendCQ, recvCQ, srq
	cm.ctx.Eng.After(ResolveCost, d.stepFn)
	return d
}

// recycle puts the dial on the CM's free list once nothing can reach it any
// more: its handle is spent (settled), no step is queued, no message flies.
func (d *Dial) recycle() {
	if d.settled && !d.queued && !d.flying {
		*d = Dial{cm: d.cm, stepFn: d.stepFn, msg: cmMsg{dial: d}}
		d.cm.dials.Put(d)
	}
}

// queue puts the dial's next step on the hardware command queue.
func (d *Dial) queue(next dialStage, cost sim.Duration) {
	d.stage, d.queued = next, true
	d.cm.ctx.NIC.SubmitCmd(cost, d.stepFn)
}

// sendMsg ships the dial's REQ or RTU.
func (d *Dial) sendMsg(to fabric.NodeID, m cmMsg) {
	m.dial = d
	d.msg, d.flying = m, true
	d.cm.send(to, &d.msg)
}

// step advances the dial when its resolve timer or queued command completes,
// then recycles it if that was its end.
func (d *Dial) step() {
	d.queued = false
	d.advance()
	d.recycle()
}

// advance runs one step. A creation runs to the end whatever happened
// meanwhile (the QP takes its number) and a cancelled dial destroys it; any
// other step of a cancelled dial leaves the QP untouched — it has been handed
// back or destroyed. A failed transition ends the dial.
func (d *Dial) advance() {
	cm, nic := d.cm, d.cm.ctx.NIC
	if d.stage == dialCreate {
		qp := nic.AllocQPNow(d.depth, d.depth, d.sendCQ, d.recvCQ, d.srq)
		if d.settled {
			nic.DestroyQP(qp)
			return
		}
		d.qp = qp
	}
	if d.settled {
		return
	}
	switch d.stage {
	case dialResolve, dialCreate:
		if d.qp == nil {
			d.queue(dialCreate, rnic.QPCreateCost)
		} else {
			d.queue(dialInit, rnic.QPModifyCost)
		}
	case dialInit:
		if d.modify(rnic.QPInit, 0, 0) {
			cm.nextMsgID++
			d.id = cm.nextMsgID
			cm.pending[d.id] = d
			d.sendMsg(d.remote, cmMsg{kind: 0, msgID: d.id, port: d.port, qpn: d.qp.QPN, private: d.private})
		}
	case dialRTR:
		if d.modify(rnic.QPRTR, d.peer, d.peerQPN) {
			d.queue(dialRTS, rnic.QPModifyCost)
		}
	case dialRTS:
		if d.modify(rnic.QPRTS, 0, 0) {
			d.settled = true
			d.sendMsg(d.peer, cmMsg{kind: 2, msgID: d.id})
			cm.EstablishedConns++
			d.conn = Conn{QP: d.qp, Remote: d.peer, PeerData: d.peerData}
			d.done(&d.conn, nil)
		}
	}
}

// modify applies one transition of the dial's QP; a failed one ends the dial.
func (d *Dial) modify(to rnic.QPState, remote fabric.NodeID, remoteQPN uint32) bool {
	if err := d.cm.ctx.NIC.ModifyQPNow(d.qp, to, remote, remoteQPN); err != nil {
		d.cm.fail(d, err)
		return false
	}
	return true
}

// settle ends a dial, one way or the other, and says whose the QP is now: one
// the CM created itself is destroyed here, a recycled one is returned — it
// stays the caller's to release.
func (cm *CM) settle(d *Dial) *rnic.QP {
	d.settled = true
	delete(cm.pending, d.id)
	if !d.created {
		return d.qp
	}
	if d.qp != nil {
		cm.ctx.NIC.DestroyQP(d.qp)
	}
	return nil
}

// fail ends a dial in a REJ or a failed transition.
func (cm *CM) fail(d *Dial, err error) {
	cm.settle(d)
	d.done(nil, err)
}

// Cancel abandons a dial in flight: done is never called, and no command
// still queued for it touches the QP. The recycled QP, if the dial was given
// one, comes back for the caller to release. Cancelling a finished dial is a
// no-op.
func (cm *CM) Cancel(d *Dial) *rnic.QP {
	if d == nil || d.settled || d.done == nil { // done, cancelled, or already recycled
		return nil
	}
	qp := cm.settle(d)
	d.recycle()
	return qp
}

// PendingDials counts dials whose REQ is out and unanswered (leak checks).
func (cm *CM) PendingDials() int { return len(cm.pending) }

// Accept completes the passive side with the given QP (create it first, or
// pass a recycled one); the QP is driven to RTS, one queued transition at a
// time, and the REP leaves.
func (req *ConnReq) Accept(qp *rnic.QP, done func(*Conn, error)) {
	req.qp, req.next, req.done, req.queued = qp, rnic.QPInit, done, true
	req.cm.ctx.NIC.SubmitCmd(rnic.QPModifyCost, req.stepFn)
}

// step applies the transition Accept queued and queues the one after it
// (INIT, RTR, RTS: consecutive states); a failed one REJects the dialer.
func (req *ConnReq) step() {
	cm := req.cm
	req.queued = false
	if err := cm.ctx.NIC.ModifyQPNow(req.qp, req.next, req.From, req.FromQPN); err != nil {
		req.answer(cmMsg{kind: 3, msgID: req.msgID, errText: err.Error()})
		req.done(nil, err)
	} else if req.next != rnic.QPRTS {
		req.next, req.queued = req.next+1, true
		cm.ctx.NIC.SubmitCmd(rnic.QPModifyCost, req.stepFn)
	} else {
		req.answer(cmMsg{kind: 1, msgID: req.msgID, qpn: req.qp.QPN, private: req.ReplyData})
		cm.EstablishedConns++
		req.conn = Conn{QP: req.qp, Remote: req.From}
		req.done(&req.conn, nil)
	}
	req.recycle()
}

// answer sends the REP or REJ that settles the request.
func (req *ConnReq) answer(m cmMsg) {
	m.req = req
	req.rep, req.settled, req.flying = m, true, true
	req.cm.send(req.From, &req.rep)
}

// recycle puts the request on the CM's free list once its handle is spent, no
// step is queued and its answer landed.
func (req *ConnReq) recycle() {
	if req.settled && !req.queued && !req.flying {
		*req = ConnReq{cm: req.cm, stepFn: req.stepFn, rep: cmMsg{req: req}}
		req.cm.reqs.Put(req)
	}
}

// Reject refuses an inbound request; the handle is spent.
func (req *ConnReq) Reject(reason string) {
	req.answer(cmMsg{kind: 3, msgID: req.msgID, errText: reason})
}

// ErrRejected is returned to the dialer when the listener rejects.
var ErrRejected = errors.New("verbs: connection rejected")

// HandlePacket implements fabric.Endpoint for the CM control plane. The
// message has landed once it is handled: the step machine it lives in may be
// recycled.
func (cm *CM) HandlePacket(p *fabric.Packet) {
	m, ok := p.Payload.(*cmMsg)
	if !ok {
		return
	}
	// Crashed machine: the control plane dies with it. Dialers must run their
	// own timeout — there is no one here to REJ.
	if cm.ctx.NIC.Alive() {
		cm.handle(p.Src, m)
	}
	switch {
	case m.dial != nil:
		m.dial.flying = false
		m.dial.recycle()
	case m.req != nil:
		m.req.flying = false
		m.req.recycle()
	}
}

// handle acts on one message from src.
func (cm *CM) handle(src fabric.NodeID, m *cmMsg) {
	switch m.kind {
	case 0: // REQ
		h, ok := cm.listeners[m.port]
		if !ok {
			cm.send(src, &cmMsg{kind: 3, msgID: m.msgID, errText: "connection refused"})
			return
		}
		req := cm.reqs.Take(func() (req *ConnReq) {
			req = &ConnReq{cm: cm}
			req.stepFn, req.rep.req = req.step, req
			return req
		})
		req.From, req.FromQPN, req.Port, req.msgID, req.PrivateData = src, m.qpn, m.port, m.msgID, m.private
		h(req)
	case 1: // REP
		d, ok := cm.pending[m.msgID]
		if !ok {
			return
		}
		delete(cm.pending, m.msgID)
		// m is recycled before the queued transitions run.
		d.peer, d.peerQPN, d.peerData = src, m.qpn, m.private
		d.queue(dialRTR, rnic.QPModifyCost)
	case 2: // RTU — passive side already RTS in this model; nothing to do.
	case 3: // REJ
		if d, ok := cm.pending[m.msgID]; ok {
			cm.fail(d, fmt.Errorf("%w: %s", ErrRejected, m.errText))
			d.recycle()
		}
	}
}
