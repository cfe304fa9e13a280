package xrdma

import (
	"fmt"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// The exclusive-QP owner of a link (link.go): one channel, one rider. What
// is particular to it is where replacement QPs come from (the QP cache,
// with a fresh receive pool), who redials (the lower node id,
// through Options.RecoverPort), and what happens when re-establishment is
// exhausted — the Mock fallback (§VI-C) when configured, from which
// periodic failback probes try to return to RDMA, terminal teardown
// otherwise.

// newLink builds the link under an exclusive channel: dialing (Connect,
// accept) and off the scan list until its first QP, or, rehydrated, degraded.
func (c *Context) newLink(ch *Channel, state linkState) *link {
	l := &link{
		c: c, own: ch, solo: [1]*Channel{ch}, peer: ch.Peer, state: state,
		port: c.recoverPort, dialer: c.Node() < ch.Peer, redial: helloRecover,
		depth:       2*c.cfg.WindowDepth + ctrlReserve + c.cfg.MaxOutstandingWRs + 8,
		dialTimeout: c.cfg.RecoverDialTimeout,
		lastComm:    c.eng.Now(),
	}
	ch.lk = l
	if state == linkDialing {
		c.dialing = append(c.dialing, l)
	} else {
		c.links = append(c.links, l)
	}
	return l
}

func (ch *Channel) riders() []*Channel { return ch.lk.solo[:] }

// acquire obtains the channel's standing receive pool (none in SRQ mode),
// then consults the QP cache; the allocation overlaps the much slower
// connection handshake.
func (ch *Channel) acquire(fn func(*rnic.QP, []Buffer)) {
	c := ch.ctx
	if c.cfg.UseSRQ {
		fn(c.QPs.Get(), nil)
		return
	}
	remaining := c.cfg.WindowDepth + ctrlReserve
	bufs := make([]Buffer, 0, remaining)
	for i := remaining; i > 0; i-- {
		c.Mem.Alloc(c.recvBufSize(), func(b Buffer, err error) {
			if err == nil {
				bufs = append(bufs, b)
			}
			if remaining--; remaining == 0 {
				fn(c.QPs.Get(), bufs)
			}
		})
	}
}

func (ch *Channel) release(qp *rnic.QP, bufs []Buffer) {
	ch.ctx.QPs.Put(qp)
	for _, b := range bufs {
		ch.ctx.Mem.Free(b)
	}
}

func (ch *Channel) parked() {}

// adopted establishes the channel on its link's first QP (it opens now, and
// Connect hears); a replacement moves the QPN-keyed XR-Stat row.
func (ch *Channel) adopted() {
	if ch.attach == attachPending {
		ch.lastProgress, ch.OpenedAt = ch.ctx.eng.Now(), ch.ctx.eng.Now()
		ch.finishAttach(nil)
		return
	}
	ch.unregisterGauges()
	ch.registerGauges()
}

// exhausted gives up on RDMA: a first establishment that failed just tells
// whoever waited why; an established channel degrades onto Mock when
// configured and is torn down otherwise.
func (ch *Channel) exhausted(cause error) {
	c := ch.ctx
	switch {
	case ch.closed || ch.lk.state == linkFallback:
	case ch.attach == attachPending:
		// The application never saw it: dropped, not counted closed or broken.
		ch.closed = true
		ch.lk.close()
		ch.attachSettled(cause)
	case c.cfg.MockEnabled && c.tcp != nil && c.mockPort > 0:
		// Degrade onto TCP instead of dying.
		ch.enterMockMode(cause)
		ch.connectMock(cause)
	default:
		c.Stats.ChannelsBroken++
		c.logf("channel qpn=%d peer=%d beyond recovery: %v", ch.QPN(), ch.Peer, cause)
		ch.teardown(cause)
	}
}

// park holds a rider whose link lost its transport: traffic stays in the
// send queue until a replacement is adopted.
func (ch *Channel) park() {
	ch.setHealth(HealthDegraded)
	ch.quiesce()
}

// quiesce drops what only a live QP could use: the link's receive pool (a
// shared QP has none) and the rider's ack timer.
func (ch *Channel) quiesce() {
	c := ch.ctx
	ch.lk.dropPool()
	c.eng.Cancel(ch.ackEv)
	ch.ackEv = sim.Event{}
	ch.nopInFlight = false
	ch.stallFlag = false
}

// requeueUnacked rewinds the send window to the ack edge and moves the
// unacked tail back to the head of the send queue in sequence order; the
// normal pump re-transmits with identical sequence numbers, so the
// receiver can dedup anything that survived the old transport.
func (ch *Channel) requeueUnacked() {
	if ch.tx.seq == ch.tx.acked {
		return
	}
	var replay []*msgRec
	for s := ch.tx.acked + 1; s <= ch.tx.seq; s++ {
		ps := ch.tx.at(s)
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
		replay = append(replay, ps)
	}
	ch.tx.rewind()
	ch.tenantRewind()
	replay = append(replay, ch.sendQ.Items()...)
	ch.sendQ = sim.Queue[*msgRec]{}
	for _, rec := range replay {
		ch.sendQ.Push(rec)
	}
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
		rec.cb, rec.sentAt, rec.retries, rec.blame = old.cb, old.sentAt, old.retries, old.blame
		ch.pending[rec.msgID] = rec
	}
	ch.ctx.drop(old, rec.holds)
	return rec
}

// armFailback schedules the next RDMA probe for a channel running on the
// Mock fallback (§VI-C: the fallback is meant to be temporary): a single
// replacement dial. Messages keep flowing over TCP during the probe and the
// window dedups the cutover if it succeeds.
func (ch *Channel) armFailback() {
	c, l := ch.ctx, ch.lk
	if l.port <= 0 || c.cfg.FailbackInterval <= 0 || !l.dialer {
		return
	}
	d := c.cfg.FailbackInterval
	d += sim.Duration(c.rng.Float64() * float64(d) / 4)
	epoch := l.epoch
	c.eng.AfterBg(d, func() {
		switch {
		case l.epoch != epoch || l.fb == nil:
		case !c.vctx.NIC.Alive():
			ch.armFailback()
		default:
			ch.setHealth(HealthRecovering)
			l.dialReplacement(func(error) {
				ch.setHealth(HealthFallback)
				if l.fb == nil {
					// The fallback died while we probed; re-run its rendezvous.
					ch.connectMock(fmt.Errorf("mock lost during failback probe"))
					return
				}
				ch.armFailback()
			})
		}
	})
}
