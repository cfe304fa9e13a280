package rnic

import (
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// HandlePacket is the fabric delivery entry point. Protocol processing
// (sequencing, acks, naks) is immediate; CQE visibility pays the
// completion + QP-cache costs.
func (n *NIC) HandlePacket(p *fabric.Packet) {
	h, ok := p.Payload.(*hdr)
	if !ok {
		return // foreign traffic (e.g. tcpnet) on a shared host
	}
	if !n.alive {
		// Crashed machine: packets vanish, no notification (§III). The
		// header still returns to the pool.
		n.pool.putHdr(h)
		return
	}
	if p.Corrupt {
		// Failed FCS check: the frame never reaches protocol processing.
		// The sender's RTO recovers it like any other loss. The drop is
		// also charged to the destination QP so per-flow consumers (the
		// xrdma path doctor) never blame one path's damage on another.
		n.Counters.CorruptDrops++
		if qp := n.qps.Get(uint64(h.DstQPN)); qp != nil {
			qp.Counters.CorruptDrops++
		}
		n.tel.Flight.Record(n.eng.Now(), telemetry.CatCorruptDrop, int32(n.Node), h.DstQPN, int64(p.Size), 0)
		n.pool.putHdr(h)
		return
	}
	n.Counters.PktsRecv++
	switch h.Op {
	case opAck:
		n.Counters.AcksRecv++
		if qp := n.qps.Get(uint64(h.DstQPN)); qp != nil {
			qp.handleAck(h.AckPSN)
		}
	case opNak:
		if qp := n.qps.Get(uint64(h.DstQPN)); qp != nil {
			qp.handleNak(h)
		}
	case opCNP:
		n.Counters.CNPRecv++
		if qp := n.qps.Get(uint64(h.DstQPN)); qp != nil {
			qp.Counters.CNPRecv++
			if n.Cfg.DCQCN {
				qp.reactionPoint().onCNP()
			}
		}
	case opReadResp:
		if qp := n.qps.Get(uint64(h.DstQPN)); qp != nil {
			// Response segments are data packets: an ECN mark here must
			// reach the responder's rate limiter like any other flow.
			n.maybeCNP(p, h)
			qp.handleReadResp(h)
		}
	case OpRead:
		n.handleReadReq(p, h)
	default:
		n.handleData(p, h)
	}
	// End of life for the header: every handler above copies what it
	// keeps (payload bytes move to where the message lands).
	n.pool.putHdr(h)
}

// maybeCNP implements the DCQCN notification point: an ECN-marked data
// packet triggers at most one CNP per flow per cnpInterval back to the
// sender.
func (n *NIC) maybeCNP(p *fabric.Packet, h *hdr) {
	if !p.Marked || !n.Cfg.DCQCN {
		return
	}
	key := uint64(p.Src)<<32 | uint64(h.SrcQPN)
	now := n.eng.Now()
	if last, ok := n.lastCNP[key]; ok && now.Sub(last) < cnpInterval {
		return
	}
	n.lastCNP[key] = now
	n.Counters.CNPSent++
	n.sendCtrl(p.Src, hdr{Op: opCNP, DstQPN: h.SrcQPN, SrcQPN: h.DstQPN})
}

// handleReadReq services an inbound RDMA READ without any CPU
// involvement: sequence the request in the same PSN stream as sends,
// validate the rkey and stream the response through the transmit engine.
// Servicing is stateless and idempotent — a retransmitted request (PSN
// below expected, go-back-N at the requester) re-streams the same PSN
// range from the values the packet itself carries.
func (n *NIC) handleReadReq(p *fabric.Packet, h *hdr) {
	qp := n.qps.Get(uint64(h.DstQPN))
	if qp == nil || (qp.State != QPRTR && qp.State != QPRTS) {
		return
	}
	qp.LastComm = n.eng.Now()
	n.maybeCNP(p, h)
	segs := (h.MsgLen + mtu - 1) / mtu
	if segs == 0 {
		segs = 1
	}
	switch {
	case h.PSN == qp.expected:
		// Fresh request: the response stream consumes the requester's PSN
		// range, so the receive edge jumps past it — a later SEND's
		// cumulative ack covers the READ request too.
		qp.expected += uint32(segs)
		qp.nakValid = false
	case h.PSN < qp.expected:
		// Retransmitted request: re-service idempotently below.
	default:
		// Gap: something before the READ was lost; one NAK per gap.
		if !qp.nakValid || qp.nakedAt != qp.expected {
			qp.nakValid = true
			qp.nakedAt = qp.expected
			n.Counters.SeqNakSent++
			n.sendCtrl(p.Src, hdr{Op: opNak, DstQPN: h.SrcQPN, Nak: nakSeqErr, AckPSN: qp.expected})
		}
		return
	}
	var stage *stageBuf
	if h.MsgLen > 0 {
		// Zero-byte READs (RTT probes) need no rkey, like zero-byte writes.
		mr, err := n.Mem.Lookup(h.RKey, h.RAddr, h.MsgLen)
		if err != nil {
			n.remoteAccessViolation(p.Src, h.SrcQPN, qp)
			return
		}
		// What a READ observes is the source as it is now, at acceptance —
		// not when a segment is emitted or lands (a speculative reader
		// validates against exactly this instant). The snapshot goes into a
		// recycled staging buffer; a re-serviced request takes a fresh one.
		// A size-only READ observes nothing: its segments carry lengths.
		if !h.SizeOnly {
			stage = n.pool.stage(h.MsgLen)
			copy(stage.buf, mr.Slice(h.RAddr, h.MsgLen))
		}
	}
	// The packet and header are recycled when this handler returns; copy
	// everything the deferred response needs into the job and let the
	// engine's ready-time gate charge the rxProcess delay (closure-free).
	j := n.pool.job()
	j.qp, j.isResp = qp, true
	j.respTo, j.respQPN = p.Src, h.SrcQPN
	j.readID, j.stage, j.respLen = h.ReadID, stage, h.MsgLen
	j.respPSN = h.PSN
	j.readyAt = n.eng.Now().Add(rxProcess + n.touchQP(qp))
	n.enqueueJob(j)
}

// remoteAccessViolation surfaces a responder-side rkey/bounds failure:
// per-QP and node counters, a flight-recorder event, an access NAK back
// to the requester, and the QP broken — never a silent drop.
func (n *NIC) remoteAccessViolation(src fabric.NodeID, srcQPN uint32, qp *QP) {
	n.Counters.AccessErrors++
	qp.Counters.RemoteAccessErrs++
	n.tel.Flight.Record(n.eng.Now(), telemetry.CatRemoteAccess, int32(n.Node), qp.QPN, int64(srcQPN), 0)
	n.sendCtrl(src, hdr{Op: opNak, DstQPN: srcQPN, Nak: nakAccess})
	qp.enterError(StatusRemoteAccessErr)
}

// landing resolves, at an inbound message's first carried bytes, where all of
// them go: registered memory takes them directly — the DMA a real RNIC does
// into [addr, addr+size) — and the completion's Data is that range. A work
// request that names no memory (addr 0), or an address no MR covers, gets a
// private buffer.
func (n *NIC) landing(addr uint64, size int) []byte {
	if addr != 0 {
		if mr, ok := n.Mem.FindLocal(addr, size); ok {
			return mr.Slice(addr, size)
		}
	}
	return make([]byte, size)
}

// handleReadResp accepts response packets at the requester in PSN order
// and completes the READ WR when the last arrives. Response progress is
// ack progress: it resets the retry budget and restarts the one shared
// RTO, and duplicates from an idempotent re-service are discarded by the
// same PSN rule that rejects retransmission overlap on the data path.
func (qp *QP) handleReadResp(h *hdr) {
	n := qp.nic
	st, ok := qp.pendingReads[h.ReadID]
	if !ok {
		return // duplicate of an already-completed READ
	}
	if h.PSN != st.nextPSN {
		// Below: re-serviced segment already accepted — discard. Above: a
		// hole in the response stream — the go-back-N RTO re-requests.
		return
	}
	wr := st.wr
	if st.data == nil && h.MsgLen > 0 && h.Data != nil {
		st.data = n.landing(wr.Local, h.MsgLen)
	}
	seg := len(h.Data)
	if seg == 0 && h.MsgLen > 0 {
		// size-only simulation
		seg = h.MsgLen - st.got
		if seg > mtu {
			seg = mtu
		}
	}
	if st.data != nil && h.Data != nil {
		copy(st.data[h.Offset:], h.Data)
	}
	st.got += seg
	st.nextPSN++
	qp.retries = 0
	qp.resetRTO()
	if !h.Last {
		return
	}
	delete(qp.pendingReads, h.ReadID)
	// The READ retires from the unacked list here — its response stream is
	// its acknowledgement (cumulative acks skip over READ WRs).
	for i, w := range qp.unacked {
		if w == wr {
			copy(qp.unacked[i:], qp.unacked[i+1:])
			qp.unacked = qp.unacked[:len(qp.unacked)-1]
			break
		}
	}
	qp.resetRTO()
	qp.Counters.BytesRecv += int64(wr.Len)
	// A local address that resolves to no MR now — it never did, or the
	// region went away while the segments were landing (they filled its
	// orphaned storage, harmlessly) — is counted, never silently dropped;
	// a size-only READ's destination too, though nothing landed in it.
	if wr.Len > 0 && wr.Local != 0 {
		if _, ok := n.Mem.FindLocal(wr.Local, wr.Len); !ok {
			n.Counters.LocalProtErrs++
			n.tel.Flight.Record(n.eng.Now(), telemetry.CatRemoteAccess, int32(n.Node), qp.QPN, int64(wr.ID), 1)
		}
	}
	// Park the payload — the destination range itself when it is registered
	// memory — on the WR, where completeSend finds it.
	wr.Data = st.data
	n.pool.putReadState(st)
	qp.completeSend(wr, StatusOK, qp.sendCQEKey(completionCost))
}

// handleData sequences SEND/WRITE packets: in-order acceptance, duplicate
// re-ack, gap NAK, RNR NAK when a SEND finds no receive buffer.
func (n *NIC) handleData(p *fabric.Packet, h *hdr) {
	qp := n.qps.Get(uint64(h.DstQPN))
	if qp == nil || (qp.State != QPRTR && qp.State != QPRTS) {
		return
	}
	qp.LastComm = n.eng.Now()
	n.maybeCNP(p, h)

	switch {
	case h.PSN < qp.expected:
		// Retransmission overlap: discard, refresh the ack.
		qp.sendAckNow()
		return
	case h.PSN > qp.expected:
		// Loss gap: one NAK per gap.
		if !qp.nakValid || qp.nakedAt != qp.expected {
			qp.nakValid = true
			qp.nakedAt = qp.expected
			n.Counters.SeqNakSent++
			n.sendCtrl(p.Src, hdr{Op: opNak, DstQPN: h.SrcQPN, Nak: nakSeqErr, AckPSN: qp.expected})
		}
		return
	}

	// In order. First packet of a receive-consuming message must claim a
	// receive WQE; failure is the RNR the paper's seq-ack window kills.
	if h.First && h.Op.IsRecvConsuming() {
		wr, ok := qp.takeRecv()
		if !ok {
			n.Counters.RNRNakSent++
			qp.Counters.RNRNakSent++
			n.tel.Flight.Record(n.eng.Now(), telemetry.CatRNRNakSent, int32(n.Node), qp.QPN, int64(qp.expected), 0)
			n.sendCtrl(p.Src, hdr{Op: opNak, DstQPN: h.SrcQPN, Nak: nakRNR, AckPSN: qp.expected})
			return
		}
		if (h.Op == OpSend || h.Op == OpSendImm) && h.MsgLen > wr.Len {
			n.remoteAccessViolation(p.Src, h.SrcQPN, qp)
			return
		}
		a := n.pool.asm()
		a.op, a.msgLen, a.recvWR, a.hasWR = h.Op, h.MsgLen, wr, true
		if h.Blame != nil {
			// Trace bit: reassembly residency starts when the first
			// fragment is accepted (RNR-rejected attempts are charged to
			// the sender's recovery stage, not to reassembly).
			if h.Blame.FirstAt == 0 {
				h.Blame.FirstAt = n.eng.Now()
			}
			a.blame = h.Blame
		}
		qp.assemble = a
	}
	if h.First && (h.Op == OpWrite || h.Op == OpWriteImm) {
		var mr *MR
		if h.MsgLen > 0 {
			var err error
			mr, err = n.Mem.Lookup(h.RKey, h.RAddr, h.MsgLen)
			if err != nil {
				n.remoteAccessViolation(p.Src, h.SrcQPN, qp)
				return
			}
		}
		if qp.assemble == nil {
			a := n.pool.asm()
			a.op, a.msgLen = h.Op, h.MsgLen
			qp.assemble = a
		}
		qp.assemble.mr = mr
		qp.assemble.raddr = h.RAddr
	}

	qp.expected++
	qp.nakValid = false

	a := qp.assemble
	if a == nil {
		// Mid-message packet after QP reset: drop payload, still ack.
		qp.scheduleAck(h.Last)
		return
	}
	// Progress accounting uses the wire segment length; carried bytes may
	// be fewer (size-only payloads behind a real header).
	seg := h.MsgLen - a.got
	if seg > mtu {
		seg = mtu
	}
	if seg < 0 {
		seg = 0
	}
	switch a.op {
	case OpWrite, OpWriteImm:
		if h.Data != nil && a.mr != nil {
			copy(a.mr.Slice(a.raddr+uint64(h.Offset), len(h.Data)), h.Data)
		}
	default:
		// What the wire does not carry (a size-only payload behind a real
		// header) reads as zeros, whatever the posted buffer held before.
		if a.data == nil && h.Data != nil {
			a.data = n.landing(a.recvWR.Addr, a.msgLen)
			clear(a.data[:h.Offset])
		}
		if a.data != nil {
			lo, hi := h.Offset+copy(a.data[h.Offset:], h.Data), min(h.Offset+seg, a.msgLen)
			if lo < hi {
				clear(a.data[lo:hi])
			}
		}
	}
	a.got += seg

	if h.Last {
		qp.assemble = nil
		n.Counters.MsgsRecv++
		n.Counters.BytesRecv += int64(a.msgLen)
		qp.Counters.MsgsRecv++
		qp.Counters.BytesRecv += int64(a.msgLen)
		n.deliver(qp, a, h)
		n.pool.putAsm(a) // deliver copied the CQE (incl. the data slice)
	}
	qp.scheduleAck(h.Last)
}

// deliver raises the receive-side completion (if the op consumes one).
func (n *NIC) deliver(qp *QP, a *assembly, h *hdr) {
	hasImm := h.Op == OpSendImm || h.Op == OpWriteImm
	if !a.hasWR && !hasImm {
		return // plain WRITE: invisible to the application, by design
	}
	cqe := CQE{
		QPN: qp.QPN, Op: h.Op, Status: StatusOK, Len: a.msgLen,
		Imm: h.Imm, HasImm: hasImm,
	}
	cqe.Blame = a.blame
	if a.hasWR {
		cqe.WRID = a.recvWR.ID
		cqe.Addr = a.recvWR.Addr
		if a.data != nil {
			if a.recvWR.Addr != 0 {
				if _, ok := n.Mem.FindLocal(a.recvWR.Addr, a.msgLen); !ok {
					// Receive buffer not registered (any more: a dereg raced
					// the fragments): data still reaches the CQE, but the
					// lost DMA is counted, never silent.
					n.Counters.LocalProtErrs++
				}
			}
			cqe.Data = a.data
		}
	}
	if a.op == OpWriteImm {
		// The recv WQE (when one was consumed) only carried the wakeup;
		// the data landed at the remote address, and that is what the
		// completion reports.
		cqe.Addr = a.raddr
	}
	qp.pushRecvCQE(completionCost+n.touchQP(qp), cqe)
}

// --- ack generation -------------------------------------------------------

// scheduleAck coalesces acknowledgements: immediate on message boundaries
// every ackEvery packets, otherwise a delayed ack timer.
func (qp *QP) scheduleAck(boundary bool) {
	qp.pktsSinceAck++
	if (boundary && qp.pktsSinceAck >= ackEvery) || qp.pktsSinceAck >= ackEvery*4 {
		qp.sendAckNow()
		return
	}
	if !qp.ackTimer.Pending() {
		qp.ackTimer = qp.nic.eng.After(ackDelay, qp.ackFn)
	}
}

func (qp *QP) sendAckNow() {
	n := qp.nic
	n.eng.Cancel(qp.ackTimer)
	qp.ackTimer = sim.Event{}
	qp.pktsSinceAck = 0
	n.Counters.AcksSent++
	n.sendCtrl(qp.RemoteNode, hdr{Op: opAck, DstQPN: qp.RemoteQPN, SrcQPN: qp.QPN, AckPSN: qp.expected})
}

// --- ack / nak handling at the requester -----------------------------------

// handleAck retires unacked WRs whose PSN range is fully covered by the
// cumulative ack. Any forward movement of the cumulative ack counts as
// progress and resets the retry budget — a multi-megabyte WR paced down by
// DCQCN must not trip the RTO while it is advancing.
func (qp *QP) handleAck(ackPSN uint32) {
	progressed := false
	if ackPSN > qp.lastSeenAck {
		qp.lastSeenAck = ackPSN
		progressed = true
	}
	// READ WRs stay in the list past the cumulative ack: the responder's
	// receive edge jumps over a READ's PSN range when it accepts the
	// request, so a later SEND's ack can cover a READ whose response is
	// still streaming. Only the response stream retires a READ
	// (handleReadResp); the ack walks over it here.
	for i := 0; i < len(qp.unacked); {
		wr := qp.unacked[i]
		if wr.lastPSN >= ackPSN {
			break
		}
		if wr.Op == OpRead {
			i++
			continue
		}
		// Compact in place rather than re-slicing: [1:] would walk the
		// backing array forward and force the next append to grow it.
		copy(qp.unacked[i:], qp.unacked[i+1:])
		qp.unacked = qp.unacked[:len(qp.unacked)-1]
		qp.completeSend(wr, StatusOK, qp.sendCQEKey(completionCost))
	}
	if progressed {
		qp.retries = 0
		qp.rnrRetries = 0
		qp.resetRTO()
	}
}

// rnrBackoffOver resumes transmission when an RNR backoff window ends.
func (qp *QP) rnrBackoffOver() {
	if qp.State == QPRTS {
		qp.retransmitUnacked()
	}
}

func (qp *QP) handleNak(h *hdr) {
	n := qp.nic
	switch h.Nak {
	case nakAccess:
		// Requester side of a remote-access violation: the responder
		// already broke its half; mirror the accounting here so both ends
		// of the wire agree on why the QP died.
		n.Counters.AccessErrors++
		qp.Counters.RemoteAccessErrs++
		n.tel.Flight.Record(n.eng.Now(), telemetry.CatRemoteAccess, int32(n.Node), qp.QPN, int64(h.SrcQPN), 2)
		qp.enterError(StatusRemoteAccessErr)
	case nakRNR:
		n.Counters.RNRNakRecv++
		qp.Counters.RNRNakRecv++
		n.tel.Flight.Record(n.eng.Now(), telemetry.CatRNRNakRecv, int32(n.Node), qp.QPN, int64(qp.rnrRetries), 0)
		qp.handleAck(h.AckPSN)
		qp.rnrRetries++
		if qp.rnrRetries > n.Cfg.RNRRetryLimit {
			qp.enterError(StatusRNRRetryExceeded)
			return
		}
		// The backoff window is the recovery residency this RNR costs.
		// A NAK burst (one per rejected packet) extends the window rather
		// than stacking it, so only the wall-clock extension is charged.
		now := n.eng.Now()
		until := now.Add(n.Cfg.RNRTimer)
		add := n.Cfg.RNRTimer
		if qp.rnrBackoffUntil > now {
			add = until.Sub(qp.rnrBackoffUntil)
		}
		if add > 0 {
			qp.Counters.RNRRecoveryNs += int64(add)
		}
		qp.rnrBackoffUntil = until
		n.eng.At(qp.rnrBackoffUntil, qp.rnrFn)
	case nakSeqErr:
		n.Counters.SeqNakRecv++
		qp.Counters.SeqNakRecv++
		qp.handleAck(h.AckPSN)
		qp.retransmitUnacked()
	}
}
