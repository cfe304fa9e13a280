package xrdma

import (
	"errors"
	"fmt"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// ErrAlreadyReplied guards double replies.
var ErrAlreadyReplied = errors.New("xrdma: message already replied")

// SendMsg sends a request (xrdma_send_msg). data may be nil for size-only
// simulation, in which case size gives the payload length. cb, when
// non-nil, receives the response (request-response is X-RDMA's native mode,
// §IV-C); a nil cb makes the message one-way.
//
// Small payloads (≤ SmallMsgSize) travel inline over SEND; larger ones are
// staged in the memory cache and announced, and the receiver pulls them
// with fragmented RDMA READ — lengths alone for a size-only message, whose
// Msg.Data then has unspecified contents. Every message goes through the
// seq-ack window regardless of transport — a channel that is degraded,
// recovering or running on the TCP mock keeps accepting sends, and the
// window replays/dedups across cutovers.
func (ch *Channel) SendMsg(data []byte, size int, cb func(*Msg, error)) error {
	if ch.closed {
		return ErrChannelClosed
	}
	// The record owns a copy of the payload: the caller is free to reuse its
	// buffer the moment SendMsg returns, whether the message leaves now or
	// waits for a window slot or a recovery.
	rec := ch.newMsg(kindReq, ch.ctx.nextMsgID(), data, size)
	if rec.oneWay = cb == nil; !rec.oneWay {
		rec.cb, rec.sentAt = cb, ch.ctx.eng.Now()
		if ch.pending == nil {
			ch.pending = make(map[uint64]*msgRec)
		}
		ch.pending[rec.msgID] = rec
		rec.holds |= holdWaiter
		ch.Counters.ReqsSent++
	}
	ch.enqueue(rec)
	return nil
}

// Reply answers a request (responses ride the same window; large ones use
// read-replace-write: the responder stages the payload and the requester
// pulls it with RDMA READ, §IV-C).
func (m *Msg) Reply(data []byte, size int) error {
	if !m.IsReq {
		return fmt.Errorf("xrdma: Reply on a non-request message")
	}
	if m.replied {
		return ErrAlreadyReplied
	}
	m.replied = true
	ch := m.Ch
	if ch.closed {
		return ErrChannelClosed
	}
	if data != nil {
		size = len(data)
	}
	rec := ch.newMsg(kindResp, m.MsgID, data, size)
	if mb := m.blame; mb != nil && mb.rx != nil {
		// The request rode the blame plane: mirror what this side knows —
		// request-direction fabric residency (the in-band accumulator) and
		// local reassembly — back inside the response. Handler time is
		// stamped at response transmit.
		e := &respEcho{reqQueue: mb.rx.Queue, reqPause: mb.rx.Pause, ecn: mb.rx.ECN, recvAt: m.RecvAt}
		if mb.rx.FirstAt > 0 && m.RecvAt > mb.rx.FirstAt {
			e.reasm = m.RecvAt.Sub(mb.rx.FirstAt)
		}
		rec.echo = e
	}
	ch.enqueue(rec)
	return nil
}

// newMsg builds the record of a windowed message around a copy of its payload.
func (ch *Channel) newMsg(kind msgKind, msgID uint64, data []byte, size int) *msgRec {
	rec := ch.ctx.newRec(recFrame, ch)
	rec.mkind, rec.msgID = kind, msgID
	rec.setPayload(data, size)
	return rec
}

func (ch *Channel) enqueue(rec *msgRec) {
	rec.enqAt = ch.ctx.eng.Now()
	rec.holds |= holdSendQ
	ch.sendQ.Push(rec)
	ch.Counters.SendQueuePeak = max(ch.Counters.SendQueuePeak, ch.sendQ.Len())
	ch.pump()
}

// pathUp reports whether frames can leave right now: on the Mock fallback
// once its conn is attached, otherwise on a healthy link — and, freshly
// recovered on the passive side, only after the peer's QP proved live.
func (ch *Channel) pathUp() bool {
	if ch.lk.state == linkFallback {
		return ch.lk.fb != nil
	}
	return ch.health == HealthHealthy && !ch.resumeOnRx
}

// pump drains the send queue head-of-line in order: window slots gate
// everything; rendezvous messages additionally wait for their staging
// buffer. Strict FIFO keeps wire sequence numbers in submission order.
// The pump also encodes the health gates: a degraded/recovering channel
// holds traffic, a mocked channel waits for its TCP conn, and a freshly
// recovered passive side holds until the peer's QP proves live.
func (ch *Channel) pump() {
	c, lk := ch.ctx, ch.lk
	if ch.attach != attachDone {
		// Lazy mux descriptor: the first queued send is what triggers the
		// QP-pool attach; traffic drains from finishAttach.
		if ch.sendQ.Len() > 0 && !ch.closed {
			ch.requestAttach()
		}
		return
	}
	for ch.sendQ.Len() > 0 && !ch.closed && ch.pathUp() {
		ps := ch.sendQ.Head()
		if !ch.win.canSend() {
			if !ch.stallFlag {
				ch.stallFlag = true
				ch.Counters.WindowStalls++
			}
			return
		}
		// Over the mock transport everything goes inline — TCP has no
		// rendezvous read, and the record owns the payload.
		large := ps.size > c.cfg.SmallMsgSize && lk.state != linkFallback
		if large && !ps.ready {
			if ps.staging {
				return
			}
			buf, ok, err := c.Mem.allocSync(ch.tenant, ps.size)
			if !ok && err == nil { // the cache must grow first: only that needs a callback
				ps.staging = true
				gen := ps.gen
				c.Mem.AllocT(ch.tenant, ps.size, func(buf Buffer, err error) {
					stale := ps.gen != gen // the channel died: the record may serve another message by now
					if !stale {
						ps.staging = false
					}
					if stale || ch.closed || lk.state == linkFallback {
						c.Mem.Free(buf) // or cut over to mock meanwhile: the message goes inline (or nowhere)
					} else {
						ch.stage(ps, buf, err)
					}
					if !ch.closed {
						ch.pump()
					}
				})
				return
			}
			if ch.stage(ps, buf, err); err != nil {
				continue
			}
		}
		// Tenant QoS gate: the token bucket and window partition admit
		// exactly one frame per true return, immediately transmitted.
		if t := ch.tenant; t != nil && !t.admit(ch, hdrSize+ps.size) {
			return
		}
		ch.stallFlag = false
		ch.transmit(ch.sendQ.Pop(), large)
	}
}

// stage lands a staging allocation on ps. Budget/pool exhaustion is an admission
// verdict, not a stall: the caller's completion fails now, not by timing out.
func (ch *Channel) stage(ps *msgRec, buf Buffer, err error) {
	if err != nil {
		if ch.sendQ.Remove(ps) {
			ch.failSend(ps, err)
		}
		return
	}
	copy(buf.Bytes(), ps.payload())
	ps.staged, ps.ready = buf, true
}

func (ch *Channel) transmit(ps *msgRec, large bool) {
	c := ch.ctx
	kind := ps.mkind
	ps.large = large
	if large {
		if kind == kindReq {
			kind = kindLargeReq
		} else {
			kind = kindLargeResp
		}
		ch.Counters.LargeSent++
	}
	// The window keeps the record, and the message replayable, until acked.
	ps.holds = ps.holds&^holdSendQ | holdWindow
	seq := ch.win.next(ps)
	h := wireHdr{
		Kind: kind, Ver: ch.lk.ver, Seq: seq, Ack: ch.win.ackValue(), Chan: ch.peerCID,
		MsgID: ps.msgID, Size: uint32(ps.size),
	}
	if t := ch.tenant; t != nil {
		t.noteSend(ch)
		if ch.peerCap(capTenant) {
			// The label extension is negotiation-gated: local QoS accounting
			// always runs, but wire bytes the peer did not advertise for are
			// never emitted.
			h.Flags |= flagTenant
			h.Tenant = t.id
			h.TLabel = t.label
		}
	}
	if ps.oneWay {
		h.Flags |= flagOneWay
	}
	if large {
		h.Addr, h.RKey = ps.staged.Addr, ps.staged.MR.RKey
		if !ps.hasData {
			h.Flags |= flagSizeOnly
		}
	}
	if c.cfg.ReqRspMode && (c.cfg.TraceSampleMask == 0 || ps.msgID&c.cfg.TraceSampleMask == 0) {
		h.Flags |= flagTraced
		h.T1 = int64(c.LocalClock())
	}
	// Blame plane (causal per-message tracing): sampled requests carry the
	// blame bit end-to-end; responses to blamed requests mirror the remote
	// stages. Inline RDMA messages only — mock/rendezvous stay unsampled.
	var blameAcc *telemetry.PktBlame
	if c.cfg.ReqRspMode && ch.lk.state != linkFallback {
		switch {
		case kind == kindReq && !ps.oneWay && ch.peerCap(capBlame) && ch.blameSampled(ps.msgID):
			h.Flags |= flagTraced | flagBlame
			h.T1 = int64(c.LocalClock())
			blameAcc = &telemetry.PktBlame{}
		case kind == kindResp && ps.echo != nil:
			h.Flags |= flagTraced | flagBlame
			h.T1 = int64(c.LocalClock())
			h.BQueue = int64(ps.echo.reqQueue)
			h.BPause = int64(ps.echo.reqPause)
			h.BReasm = int64(ps.echo.reasm)
			h.BHandler = int64(c.eng.Now().Sub(ps.echo.recvAt))
			h.BECN = ps.echo.ecn
			blameAcc = &telemetry.PktBlame{}
		}
	}
	wireLen := h.wireBytes()
	if !large {
		wireLen += ps.size
	}
	if t := ch.tenant; t != nil {
		t.Sent++
		t.TxBytes += int64(wireLen)
	}
	ch.noteAckCarried()
	size, enqAt := ps.size, ps.enqAt
	ch.lk.emit(ps, &h, wireLen, blameAcc) // ps is the window's from here: a refused post may even have torn it down
	if blameAcc != nil && kind == kindReq {
		if rs, ok := ch.pending[h.MsgID]; ok {
			qc := &ch.lk.qp.Counters
			rs.blame = &reqBlame{
				enqAt: enqAt, txAt: c.eng.Now(), wr: &ps.wr, acc: blameAcc,
				rtoRef: qc.RTORecoveryNs, rnrRef: qc.RNRRecoveryNs,
			}
		}
	}
	ch.Counters.MsgsSent++
	ch.Counters.BytesSent += int64(size)
	c.tel.Trace.Instant("msg.send", c.track, c.eng.Now(), int64(size))
}

// failSend surfaces a send that could not be staged (tenant budget, pool
// exhaustion): the pending response waiter fails now instead of timing
// out with the message silently dropped. One-way sends and responses have
// no waiter; their drop is the backpressure. ps has left the send queue.
func (ch *Channel) failSend(ps *msgRec, err error) {
	c := ch.ctx
	rs := ch.pending[ps.msgID] // the request's waiter, if it has one
	isReq := ps.mkind == kindReq
	c.drop(ps, holdSendQ)
	if rs != nil && isReq {
		ch.settle(rs)(nil, err)
	}
}

// settle takes a response waiter off the books and returns its callback,
// which may well recycle the record itself.
func (ch *Channel) settle(rs *msgRec) func(*Msg, error) {
	cb := rs.cb
	delete(ch.pending, rs.msgID)
	ch.ctx.drop(rs, holdWaiter)
	return cb
}

// acked retires a windowed message the peer acknowledged.
func (ch *Channel) acked(rec *msgRec) {
	if rec.staged.Valid() {
		ch.ctx.Mem.Free(rec.staged)
		rec.staged = Buffer{}
	}
	ch.ctx.drop(rec, holdWindow)
	if t := ch.tenant; t != nil {
		t.noteAcked(ch)
	}
}

// blameSuspectBudget is how many requests a slow-op incident force-samples.
const blameSuspectBudget = 4

// blameSampled decides whether a request joins the causal trace plane:
// every TraceSampleN-th message, plus the suspect budget a slow-op
// incident armed. TraceSampleN == 0 keeps the plane (and this branch's
// allocations) entirely off.
func (ch *Channel) blameSampled(msgID uint64) bool {
	n := ch.ctx.cfg.TraceSampleN
	if n == 0 {
		return false
	}
	if ch.blameSuspect > 0 {
		ch.blameSuspect--
		return true
	}
	return msgID%n == 0
}

// sendCtrl emits a window-exempt control message (ack/NOP/path hint).
func (ch *Channel) sendCtrl(kind msgKind) {
	ch.sendCtrlHdr(&wireHdr{Kind: kind})
}

// sendCtrlHdr emits a window-exempt frame: a header, no payload. Control
// traffic is advisory — cumulative acks re-ride the next message — so without
// a live path the frame is dropped. (The window has no slots only on an
// unattached mux descriptor: there is no wire yet to put a control frame on.)
func (ch *Channel) sendCtrlHdr(h *wireHdr) {
	if ch.closed || ch.win.slots == nil || !ch.pathUp() {
		return
	}
	h.Ver, h.Ack, h.Chan = ch.lk.ver, ch.win.ackValue(), ch.peerCID
	ch.lk.emitCtrl(ch, h)
	if h.Kind == kindAck {
		ch.Counters.AcksSent++
		ch.ctx.Stats.AcksSent++
	}
	ch.noteAckCarried()
}

// noteAckCarried records that the current RTA went out with some message.
func (ch *Channel) noteAckCarried() {
	ch.lastAckVal = ch.win.ackValue()
	ch.recvSinceAck = 0
	ch.ctx.eng.Cancel(ch.ackEv)
	ch.ackEv = sim.Event{}
}

// maybeAck emits a standalone ack after AckEvery deliveries, or arms the
// delayed-ack timer (§V-B: "after receiving N messages successfully but
// without any ACK, a standalone ACK message will be triggered").
func (ch *Channel) maybeAck() {
	if ch.closed || ch.win.ackValue() == ch.lastAckVal {
		return
	}
	if ch.recvSinceAck >= ch.ctx.cfg.AckEvery {
		ch.sendCtrl(kindAck)
		return
	}
	if !ch.ackEv.Pending() {
		if ch.ackFn == nil {
			ch.ackFn = func() {
				if !ch.closed && ch.win.ackValue() > ch.lastAckVal {
					ch.sendCtrl(kindAck)
				}
			}
		}
		ch.ackEv = ch.ctx.eng.After(ch.ctx.cfg.AckDelay, ch.ackFn)
	}
}

// --- inbound ----------------------------------------------------------------

// handleWire is the transport-independent inbound path (an exclusive
// link's owner hook, and where a shared QP's demux lands): RDMA receive
// completions and mock TCP messages both arrive with a decoded header and
// the inline payload (if carried). rxBlame is the in-band fabric
// accumulator the message's trace bit collected (nil unless blame-traced).
func (ch *Channel) handleWire(h *wireHdr, pay []byte, overMock bool, rxBlame *telemetry.PktBlame) {
	c := ch.ctx
	if ch.resumeOnRx && !overMock {
		// First traffic over the recovered RDMA path: the peer's QP is
		// provably in RTS, release the held replay.
		ch.resumeOnRx = false
		ch.pump()
	}
	// Piggybacked cumulative ack (Algorithm 1 sender RECV_MESSAGE). A
	// rehydrated sender can hear an ack beyond its rewound send edge —
	// the peer acked tail messages the restarted instance has not
	// re-sequenced yet — so the edge clamps the ack; the replay re-earns
	// the remainder when those sequence numbers are reassigned.
	if h.Ack > ch.win.acked {
		for ack := min(h.Ack, ch.win.seq); ch.win.acked < ack; {
			if rec := ch.win.retire(); rec != nil {
				ch.acked(rec)
			}
		}
		ch.lastProgress = c.eng.Now()
		ch.nopAt = 0
		ch.pump()
	}
	// Tenant label: a passive channel binds its tenant from the first
	// labelled frame (classic channels have no CHAN_OPEN to carry it).
	if h.Flags&flagTenant != 0 {
		if ch.tenant == nil {
			ch.tenant = c.resolveTenant(h)
		}
		if t := ch.tenant; t != nil && h.Kind.windowed() {
			t.Recvd++
			t.RxBytes += int64(h.Size)
		}
	}

	switch h.Kind {
	case kindAck:
		ch.nopAt = 0
	case kindPathHint:
		// The peer's doctor blames the path our flow label picks.
		ch.doctorRef().noteHint(c, c.eng.Now())
	case kindNop:
		// Deadlock breaker: answer with an immediate ack.
		ch.sendCtrl(kindAck)
	case kindPing:
		ch.Counters.Pings++
		// The pong carries this node's clock (trace extension) so the
		// pinger can estimate the offset, NTP-style.
		pong := &wireHdr{Kind: kindPong, MsgID: h.MsgID, Flags: flagTraced, T1: int64(c.LocalClock())}
		ch.sendCtrlHdr(pong)
	case kindPong:
		ch.resolvePing(h)
	case kindWinGrant:
		ch.handleWinGrant(h)
	case kindWinRevoke:
		ch.handleWinRevoke(h)
	case kindReq, kindResp:
		size := int(h.Size)
		msg := &Msg{
			Ch: ch, Data: pay, Len: size, IsReq: h.Kind == kindReq,
			MsgID: h.MsgID, Seq: h.Seq, RecvAt: c.eng.Now(),
			T1: sim.Time(h.T1), Traced: h.Flags&flagTraced != 0,
		}
		if h.Flags&flagBlame != 0 && rxBlame != nil {
			mb := &msgBlame{rx: rxBlame}
			if h.Kind == kindResp {
				mb.reqQueue = sim.Duration(h.BQueue)
				mb.reqPause = sim.Duration(h.BPause)
				mb.reasm = sim.Duration(h.BReasm)
				mb.handler = sim.Duration(h.BHandler)
				mb.ecn = h.BECN
			}
			msg.blame = mb
		}
		if !ch.win.receive(h.Seq, true) {
			// A cutover replay. If the original delivery completed, just
			// refresh the (evidently lost) ack. If it was announced as a
			// rendezvous whose pull died with the old transport, this
			// inline replay IS the payload — deliver it.
			if ch.win.isRecved(h.Seq) {
				ch.sendCtrl(kindAck)
				return
			}
			ch.win.markRecved(h.Seq)
		}
		ch.deliver(msg)
	case kindLargeReq, kindLargeResp:
		size := int(h.Size)
		msg := &Msg{
			Ch: ch, Len: size, IsReq: h.Kind == kindLargeReq,
			MsgID: h.MsgID, Seq: h.Seq,
			T1: sim.Time(h.T1), Traced: h.Flags&flagTraced != 0,
		}
		if !ch.win.receive(h.Seq, false) {
			if ch.win.isRecved(h.Seq) {
				ch.sendCtrl(kindAck)
				return
			}
			if ch.pulls[h.Seq] {
				// A pull for this sequence is already in flight (the
				// replay raced a surviving fetch); let it finish.
				return
			}
		}
		if ch.pulls == nil {
			ch.pulls = make(map[uint64]bool)
		}
		ch.pulls[h.Seq] = true
		op := c.newRec(recFetch, ch)
		op.msg, op.size = msg, size
		op.wr.RAddr, op.wr.RKey, op.wr.SizeOnly = h.Addr, h.RKey, h.Flags&flagSizeOnly != 0
		ch.fetch(op)
	default:
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatIntegrity, int32(c.Node()), ch.QPN(), integrityKind, int64(ch.Peer))
	}
}

// pulled completes a rendezvous pull: msg's payload is in buf, fetched over
// pullQP since pullStart — or st/err say why not.
func (ch *Channel) pulled(msg *Msg, buf Buffer, pullQP *rnic.QP, pullStart sim.Time, st rnic.Status, err error) {
	c, seqNo := ch.ctx, msg.Seq
	if err != nil {
		delete(ch.pulls, seqNo)
		if err != ErrNoPath {
			ch.fail(fmt.Errorf("xrdma: rendezvous alloc: %w", err))
		}
		return
	}
	// A completion from a pre-recovery transport is stale news: the channel
	// already cut over, and the replayed announce owns the pull marker for
	// this sequence now.
	stale := ch.lk.qp != pullQP || ch.lk.state == linkFallback
	if !stale {
		delete(ch.pulls, seqNo)
	}
	if ch.closed || st != rnic.StatusOK {
		c.Mem.Free(buf)
		if !ch.closed && !stale {
			ch.fail(fmt.Errorf("xrdma: rendezvous read failed: %v", st))
		}
		return
	}
	// The pull is one-sided READ residency: attribute it to the read.fetch
	// stage on the timeline.
	c.tel.Trace.Complete(telemetry.StageReadFetch.String(), c.track,
		pullStart, c.eng.Now().Sub(pullStart), int64(msg.MsgID))
	if ch.win.isRecved(seqNo) {
		// A replayed announce re-pulled this message and won the race; drop
		// the duplicate payload.
		c.Mem.Free(buf)
		return
	}
	msg.Data, msg.buf, msg.RecvAt = buf.Bytes(), buf, c.eng.Now()
	ch.Counters.LargeRecv++
	ch.win.markRecved(seqNo)
	ch.deliver(msg)
}

// deliver hands a completed inbound message to the application (inline
// messages at arrival — in order among themselves — and rendezvous
// messages when their pull finishes) and advances the ack machinery.
func (ch *Channel) deliver(msg *Msg) {
	c := ch.ctx
	ch.Counters.MsgsRecv++
	ch.Counters.BytesRecv += int64(msg.Len)
	c.tel.Trace.Instant("msg.deliver", c.track, c.eng.Now(), int64(msg.Len))
	if msg.Traced {
		c.onRecv(ch, msg)
	}
	if msg.IsReq {
		if ch.onMessage != nil {
			ch.onMessage(msg)
		}
	} else if rs, ok := ch.pending[msg.MsgID]; ok {
		ch.Counters.RespsRecv++
		ch.doctorRef().observeRTT(c.eng.Now().Sub(rs.sentAt))
		if t := ch.tenant; t != nil {
			t.RTTCount++
			t.RTTSumNs += int64(c.eng.Now().Sub(rs.sentAt))
		}
		if msg.Traced {
			c.onResponse(ch, msg, rs.sentAt)
		}
		if rs.blame != nil && msg.blame != nil {
			c.onBlame(ch, msg, rs.blame)
		}
		ch.settle(rs)(msg, nil)
	}
	if msg.buf.Valid() { // a rendezvous buffer goes back once the handler returns
		c.Mem.Free(msg.buf)
		msg.buf, msg.Data = Buffer{}, nil
	}
	ch.recvSinceAck++
	ch.maybeAck()
}

// --- middleware-level ping (XR-Ping, §VI-B) -----------------------------------

type pingState struct {
	sentAt    sim.Time
	sentClock sim.Time
	cb        func(rtt sim.Duration, off sim.Duration, err error)
}

// Ping measures middleware-to-middleware RTT on this channel and estimates
// the clock offset to the peer (the clock-sync service of §VI-A).
func (ch *Channel) Ping(cb func(rtt sim.Duration, offset sim.Duration, err error)) {
	if ch.closed {
		cb(0, 0, ErrChannelClosed)
		return
	}
	if ch.attach != attachDone {
		// Unattached mux descriptor: a ping is traffic like any other, so it
		// triggers the lazy attach and re-issues itself once the wire is up.
		ch.onAttach(func() { ch.Ping(cb) }, func(err error) { cb(0, 0, err) })
		ch.requestAttach()
		return
	}
	id := ch.ctx.nextMsgID()
	if ch.pings == nil {
		ch.pings = make(map[uint64]*pingState)
	}
	ch.pings[id] = &pingState{sentAt: ch.ctx.eng.Now(), sentClock: ch.ctx.LocalClock(), cb: cb}
	ch.sendCtrlHdr(&wireHdr{Kind: kindPing, MsgID: id})
}

func (ch *Channel) resolvePing(h *wireHdr) {
	st, ok := ch.pings[h.MsgID]
	if !ok {
		return
	}
	delete(ch.pings, h.MsgID)
	now := ch.ctx.eng.Now()
	rtt := now.Sub(st.sentAt)
	// NTP-style offset: peer stamped its clock (h.T1) at the midpoint.
	t3 := ch.ctx.LocalClock()
	offset := sim.Duration(sim.Time(h.T1) - (st.sentClock+t3)/2)
	ch.ctx.toff[ch.Peer] = offset
	if st.cb != nil {
		st.cb(rtt, offset, nil)
	}
}
