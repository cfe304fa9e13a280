package xrdma

import "xrdma/internal/sim"

// What a rider does when its link (link.go) loses or replaces the transport:
// hold traffic, stop what only a live QP could use, replay the unacked tail.

// park holds a rider whose link lost its transport: traffic stays in the
// send queue until a replacement is adopted.
func (ch *Channel) park() {
	ch.setHealth(HealthDegraded)
	ch.quiesce()
}

// quiesce stops what only a live QP could use: the rider's ack timer and its
// stall bookkeeping. It frees nothing — the receive pool stays with the broken
// QP until link.release.
func (ch *Channel) quiesce() {
	c := ch.ctx
	c.eng.Cancel(ch.ackEv)
	ch.ackEv = sim.Event{}
	ch.nopAt = 0
	ch.stallFlag = false
}

// requeueUnacked rewinds the send window to the ack edge and moves the
// unacked tail back to the head of the send queue in sequence order; the
// normal pump re-transmits with identical sequence numbers, so the
// receiver can dedup anything that survived the old transport.
func (ch *Channel) requeueUnacked() {
	if ch.win.seq == ch.win.acked {
		return
	}
	var replay sim.List[msgRec, *msgRec]
	for s := ch.win.acked + 1; s <= ch.win.seq; s++ {
		ps := ch.win.at(s)
		if ps == nil {
			continue
		}
		ps.holds ^= holdWindow | holdSendQ
		if ps.holds&holdNIC != 0 {
			ps = ch.rehome(ps)
		}
		ps.staging = false
		if ps.staged.Valid() && ps.staged.region != nil && ps.staged.region.dead {
			// The staging buffer died with the NIC's registered memory;
			// restage from the record's payload on the way out.
			ps.staged = Buffer{}
		}
		ps.ready = ps.staged.Valid()
		replay.Push(ps)
	}
	ch.win.rewind()
	ch.tenantRewind()
	for ch.sendQ.Len() > 0 {
		replay.Push(ch.sendQ.Pop())
	}
	ch.sendQ = replay
}

// rehome moves a message, response waiter and all, to a fresh record when the
// RNIC still owns the old one — the broken QP's flush is not polled yet (a
// peer-initiated recovery or Mock switch adopts that fast) — so the replay
// re-encodes no frame the hardware may yet read. The old one retires on its CQE.
func (ch *Channel) rehome(old *msgRec) *msgRec {
	rec := ch.newMsg(old.mkind, old.msgID, old.payload(), old.size)
	rec.oneWay, rec.enqAt, rec.echo = old.oneWay, old.enqAt, old.echo
	rec.staged, old.staged = old.staged, Buffer{}
	if rec.holds = old.holds &^ holdNIC; rec.holds&holdWaiter != 0 {
		rec.cb, rec.sentAt, rec.blame = old.cb, old.sentAt, old.blame
		ch.pending[rec.msgID] = rec
	}
	ch.ctx.drop(old, rec.holds)
	return rec
}
