package rnic

import (
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// The transmit engine models the property §V-C builds on: the RNIC
// pipeline processes one work request at a time, so a large WR's packets
// occupy the pipe back-to-back (paced only by DCQCN and PFC) and everything
// behind it waits. X-RDMA's fragmentation bounds that blocking time.

const engineBackoff = 2 * sim.Microsecond

func (n *NIC) enqueueJob(j *txJob) {
	n.jobs = append(n.jobs, j)
	n.kickEngine()
}

// dropJobsFor gives back qp's jobs, every QP's for nil.
func (n *NIC) dropJobsFor(qp *QP) {
	kept := n.jobs[:0]
	for _, j := range n.jobs {
		if qp == nil || j.qp == qp {
			n.pool.putJob(j)
			continue
		}
		kept = append(kept, j)
	}
	n.jobs = kept
	if n.current != nil && (qp == nil || n.current.qp == qp) {
		// No packet is in flight between two steps: the pending step finds
		// no current job and picks the next.
		n.pool.putJob(n.current)
		n.current = nil
	}
}

func (n *NIC) kickEngine() {
	if n.engineBusy {
		return
	}
	n.engineBusy = true
	n.stepEngine()
}

// pickJob removes and returns the first runnable job, or nil. A job is
// runnable when its QP can transmit now (not RNR-backing-off, QP usable).
func (n *NIC) pickJob() (*txJob, sim.Time) {
	now := n.eng.Now()
	earliest := sim.MaxTime
	for i, j := range n.jobs {
		if j.dead {
			continue
		}
		qp := j.qp
		if !j.isResp && qp.State != QPRTS {
			j.dead = true
			continue
		}
		if j.isResp && qp.State != QPRTR && qp.State != QPRTS {
			j.dead = true
			continue
		}
		if j.readyAt > now {
			// Deferred responder work (read-response rxProcess charge):
			// runnable once its ready time passes, closure-free.
			if j.readyAt < earliest {
				earliest = j.readyAt
			}
			continue
		}
		if qp.rnrBackoffUntil > now {
			if qp.rnrBackoffUntil < earliest {
				earliest = qp.rnrBackoffUntil
			}
			continue
		}
		n.jobs = append(n.jobs[:i], n.jobs[i+1:]...)
		return j, 0
	}
	// Compact dead jobs.
	kept := n.jobs[:0]
	for _, j := range n.jobs {
		if !j.dead {
			kept = append(kept, j)
		} else {
			n.pool.putJob(j)
		}
	}
	n.jobs = kept
	return nil, earliest
}

// stepEngine is the transmit engine's one event per packet. With no current
// job it picks the next runnable one and schedules its first packet; with
// one it fires at the packet's emission instant, pktProcess after the
// pipeline built it, and builds and emits the packet in one go.
func (n *NIC) stepEngine() {
	if !n.alive {
		n.engineBusy = false
		n.dropJobsFor(nil)
		return
	}
	if n.current == nil {
		job, wake := n.pickJob()
		if job == nil {
			n.engineBusy = false
			if wake != sim.MaxTime && len(n.jobs) > 0 {
				n.eng.At(wake, n.kickFn)
			}
			return
		}
		n.current = job
		ready := n.eng.Now().Add(doorbellLatency + n.touchQP(job.qp))
		if job.wr != nil && job.wr.packets == 0 {
			n.startWR(job.qp, job.wr)
		}
		n.schedulePacket(ready)
		return
	}
	job := n.current
	// Local TX backpressure: PFC pause or a deep port queue stalls the
	// pipeline (and with it every queued WR — the jitter mechanism).
	if n.host.TxPaused() || n.host.TxQueueBytes() > txBacklog {
		n.eng.After(engineBackoff, n.stepFn)
		return
	}
	// The packet was built pktProcess ago: DCQCN charges it as of then,
	// at the rate in force then.
	now := n.eng.Now()
	pkt, size, done := n.buildPacket(job)
	job.qp.paceCharge(now.Add(-pktProcess), size)
	n.emit(pkt)
	n.Counters.PktsSent++
	n.Counters.BytesSent += int64(size)
	job.qp.rate.onBytes(size)
	// The RTO measures silence after transmission, not transfer
	// duration: refresh it while packets are still going out.
	if job.wr != nil && len(job.qp.unacked) > 0 {
		job.qp.armRTO()
	}
	if !done {
		n.schedulePacket(now)
		return
	}
	n.finishJob(job)
	n.current = nil
	n.pool.putJob(job)
	n.stepEngine()
}

// schedulePacket schedules the current job's next step: the pipeline builds
// the packet once it is ready and DCQCN pacing allows, and emits it
// pktProcess later.
func (n *NIC) schedulePacket(ready sim.Time) {
	n.eng.At(max(ready, n.current.qp.nextTxTime).Add(pktProcess), n.stepFn)
}

// startWR assigns the PSN range, moves the WR to the unacked list and arms
// the retransmission timer. RDMA READs join the same PSN stream as sends
// (IB-style: the request carries the first PSN and the response segments
// consume the requester's PSN space), so one go-back-N timer covers
// everything — there is no separate read-reliability plane.
func (n *NIC) startWR(qp *QP, wr *SendWR) {
	// Remove from sq.
	for i, w := range qp.sq {
		if w == wr {
			qp.sq = append(qp.sq[:i], qp.sq[i+1:]...)
			break
		}
	}
	wr.startedAt = n.eng.Now()
	pkts := (wr.Len + mtu - 1) / mtu
	if pkts == 0 {
		pkts = 1
	}
	wr.packets = pkts
	wr.firstPSN = qp.nextPSN
	wr.lastPSN = qp.nextPSN + uint32(pkts) - 1
	qp.nextPSN += uint32(pkts)
	if wr.Op == OpRead {
		// One request packet on the wire; pkts PSNs reserved for the
		// response stream. The cursor tracks response acceptance.
		if qp.pendingReads == nil {
			qp.pendingReads = make(map[uint64]*readState)
		}
		readID := wr.ID ^ (uint64(qp.QPN) << 48)
		rs := n.pool.readState()
		rs.wr = wr
		rs.nextPSN = wr.firstPSN
		qp.pendingReads[readID] = rs
	}
	qp.unacked = append(qp.unacked, wr)
	qp.armRTO()
}

// buildPacket produces the next packet of the current job and reports the
// payload size and whether the job is finished.
func (n *NIC) buildPacket(job *txJob) (*fabric.Packet, int, bool) {
	qp := job.qp
	idx := job.offset / mtu
	if job.isResp {
		seg := min(job.respLen-job.offset, mtu)
		h := n.pool.hdr()
		h.SrcQPN, h.DstQPN = qp.QPN, job.respQPN
		h.Op, h.MsgLen, h.Offset = opReadResp, job.respLen, job.offset
		// Response segments carry the requester's PSNs (the range the READ
		// request reserved), so the requester accepts them in order with
		// the same sequencing rules as everything else.
		h.PSN = job.respPSN + uint32(idx)
		h.First, h.Last = job.offset == 0, job.offset+seg >= job.respLen
		h.ReadID = job.readID
		if s := job.stage; s != nil {
			h.Data, h.stage = s.buf[job.offset:job.offset+seg], s
			s.refs++
		}
		job.offset += seg
		p := n.fab.NewPacket()
		p.Src, p.Dst, p.Size = n.Node, job.respTo, seg+16
		p.FlowHash, p.ECT, p.Payload = qp.flowHash, true, h
		return p, seg + 16, h.Last
	}

	wr := job.wr
	seg := max(min(wr.Len-job.offset, mtu), 0)
	h := n.pool.hdr()
	h.SrcQPN, h.DstQPN = qp.QPN, qp.RemoteQPN
	h.Op, h.PSN = wr.Op, wr.firstPSN+uint32(idx)
	h.MsgID, h.MsgLen, h.Offset = wr.ID, wr.Len, job.offset
	h.First, h.Last = job.offset == 0, job.offset+seg >= wr.Len
	if h.First {
		h.RAddr, h.RKey = wr.RAddr, wr.RKey
		if wr.Op == OpRead {
			h.ReadID, h.SizeOnly = wr.ID^(uint64(qp.QPN)<<48), wr.SizeOnly
			h.Last = true
		}
	}
	if h.Last && (wr.Op == OpSendImm || wr.Op == OpWriteImm) {
		h.Imm = wr.Imm
	}
	// wr.Data may be shorter than wr.Len (a real header followed by a
	// size-only payload); carry whatever bytes exist for this segment.
	if wr.Data != nil && seg > 0 && wr.Op != OpRead && job.offset < len(wr.Data) {
		end := job.offset + seg
		if end > len(wr.Data) {
			end = len(wr.Data)
		}
		h.Data = wr.Data[job.offset:end]
	}
	wire := seg + 16
	if wr.Op == OpRead {
		wire = 32 // request carries no payload
	}
	job.offset += seg
	p := n.fab.NewPacket()
	p.Src, p.Dst, p.Size = n.Node, qp.RemoteNode, wire
	p.FlowHash, p.ECT, p.Payload = qp.flowHash, true, h
	if wr.Blame != nil {
		// Propagate the trace bit: the fabric stamps hop residency into
		// the accumulator, and the header carries it to the receiver so
		// reassembly and dispatch can be attributed too.
		h.Blame, p.Blame = wr.Blame, wr.Blame
	}
	done := h.Last || wr.Op == OpRead
	return p, wire, done
}

func (n *NIC) finishJob(job *txJob) {
	if job.isResp {
		return
	}
	wr := job.wr
	if wr.finishedAt == 0 {
		// First-pass emission only: a retransmitted WR re-enters the tx
		// pipeline and finishes again, but that residency is loss
		// recovery (blamed via the QP recovery counters), not
		// serialization.
		wr.finishedAt = n.eng.Now()
	}
	n.Counters.MsgsSent++
	job.qp.Counters.MsgsSent++
	job.qp.Counters.BytesSent += int64(wr.Len)
}

// emit puts a packet on the wire, subject to the fault-injection hook.
func (n *NIC) emit(p *fabric.Packet) {
	if n.FaultHook != nil {
		drop, delay := n.FaultHook(p)
		if drop {
			n.freePacket(p)
			return
		}
		if delay > 0 {
			n.eng.After(delay, func() { n.host.Send(p) })
			return
		}
	}
	n.host.Send(p)
}

// freePacket reclaims a packet (and its header) that never reached the
// wire: fault-injected drops.
func (n *NIC) freePacket(p *fabric.Packet) {
	n.pool.dropped(p.Payload)
	n.fab.FreePacket(p)
}

// sendCtrl emits a small control packet (ACK/NAK/CNP). The header is
// passed by value and copied onto a pooled node.
func (n *NIC) sendCtrl(dst fabric.NodeID, h hdr) {
	hp := n.pool.hdr()
	*hp = h
	p := n.fab.NewPacket()
	p.Src, p.Dst, p.Size = n.Node, dst, 16
	p.Class, p.Payload = fabric.ClassCtrl, hp
	n.emit(p)
}

// --- pacing --------------------------------------------------------------

func (qp *QP) paceCharge(built sim.Time, bytes int) {
	rate := qp.paceRate(built)
	if rate <= 0 {
		return // unlimited
	}
	d := sim.Duration(int64(bytes) * 8 * int64(sim.Second) / rate)
	qp.nextTxTime = max(qp.nextTxTime, built).Add(d)
}

// --- retransmission -------------------------------------------------------

// armRTO ensures a retransmission deadline is pending whenever unacked WRs
// exist. Posting a new WR must NOT push an armed deadline back: a shared QP
// kept busy by many multiplexed channels (window-exempt control frames can
// arrive faster than RetransTimeout) would otherwise starve the RTO and
// never recover a lost frame.
func (qp *QP) armRTO() {
	n := qp.nic
	if len(qp.unacked) == 0 {
		n.eng.Cancel(qp.rtoEvent)
		qp.rtoEvent = sim.Event{}
		return
	}
	if qp.rtoEvent.Pending() {
		return
	}
	qp.rtoAt = n.eng.Now().Add(n.Cfg.RetransTimeout)
	qp.rtoEvent = n.eng.At(qp.rtoAt, qp.rtoFn)
}

// resetRTO restarts the deadline — the classic go-back-N timer restart on
// forward progress of the cumulative ack. A pending event stays queued:
// only rtoAt moves, and the event re-arms itself there if it fires first.
func (qp *QP) resetRTO() {
	if qp.rtoEvent.Pending() && len(qp.unacked) > 0 {
		qp.rtoAt = qp.nic.eng.Now().Add(qp.nic.Cfg.RetransTimeout)
		return
	}
	qp.armRTO()
}

func (qp *QP) onRTO() {
	n := qp.nic
	if qp.State != QPRTS || len(qp.unacked) == 0 {
		return
	}
	if n.eng.Now() < qp.rtoAt {
		qp.rtoEvent = n.eng.At(qp.rtoAt, qp.rtoFn)
		return
	}
	qp.retries++
	if qp.retries > n.Cfg.RetryLimit {
		qp.enterError(StatusRetryExceeded)
		return
	}
	n.Counters.Retransmits++
	qp.Counters.Retransmits++
	// The timeout itself is the recovery residency: the wire was silent
	// for a full RTO before go-back-N kicked in.
	qp.Counters.RTORecoveryNs += int64(n.Cfg.RetransTimeout)
	n.tel.Flight.Record(n.eng.Now(), telemetry.CatRetransmit, int32(n.Node), qp.QPN, int64(qp.retries), 0)
	qp.retransmitUnacked()
	qp.armRTO()
}

// retransmitUnacked re-enqueues every unacked WR that is not already
// queued or in flight on the engine (go-back-N at WR granularity; PSNs are
// preserved so the responder can discard what it already has).
func (qp *QP) retransmitUnacked() {
	n := qp.nic
	// Stamp what the engine already holds with a fresh epoch: no set to build.
	n.rtxEpoch++
	for _, j := range n.jobs {
		if j.wr != nil && !j.dead {
			j.wr.rtxSeen = n.rtxEpoch
		}
	}
	if n.current != nil && n.current.wr != nil {
		n.current.wr.rtxSeen = n.rtxEpoch
	}
	for _, wr := range qp.unacked {
		if wr.rtxSeen == n.rtxEpoch {
			continue
		}
		// READs included: the re-enqueued job re-emits the request packet
		// with its original PSN, and the responder re-services it
		// idempotently (statelessly, from the PSN and length it carries).
		j := n.pool.job()
		j.qp, j.wr = qp, wr
		wr.jobs++
		n.enqueueJob(j)
	}
}
