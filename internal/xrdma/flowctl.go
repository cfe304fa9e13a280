package xrdma

import (
	"fmt"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// flowCtl implements §V-C: the context limits outstanding RDMA work
// requests to N, queueing the excess, and splits large one-sided
// operations into moderate fixed-size fragments so a single huge WR cannot
// monopolise the RNIC pipeline. Both mechanisms are pure software on top
// of the verbs API — "without specific hardware or software constraints".
type flowCtl struct {
	ctx         *Context
	limit       int
	outstanding int
	queue       sim.Queue[*msgRec]
	Fragments   int64 // fragments produced by splitting
}

// post hands rec.wr to rec.qp, past the limiter: inline SENDs are already
// bounded by the per-channel seq-ack window, and probes and acks must not sit
// behind queued bulk data. From here to the CQE the RNIC owns the WR and the
// frame it points at (holdNIC); a QP that will not take the WR (broken
// mid-flight), or that rec.lk gave back to the cache while rec waited (it may
// carry another connection by now), completes it as flushed on the spot.
// Either way Context.complete hears, and rec may be gone when post returns.
func (f *flowCtl) post(rec *msgRec) {
	c := f.ctx
	rec.wr.ID = c.nextWRID()
	rec.holds |= holdNIC
	c.posted.Put(rec.wr.ID, rec)
	if l := rec.lk; l.state == linkDead || l.qp != rec.qp || rec.qp.PostSend(&rec.wr) != nil {
		c.posted.Delete(rec.wr.ID)
		c.complete(rec, &rnic.CQE{WRID: rec.wr.ID, QPN: rec.qp.QPN, Op: rec.wr.Op, Status: rnic.StatusFlushed}, true)
	}
}

// read posts one READ fragment under the outstanding limit, which governs
// the bulk one-sided data plane: §V-C's congestion problem is "large size
// requests block the RNIC". A completion frees the slot for the next queued one.
func (f *flowCtl) read(rec *msgRec) {
	if f.outstanding >= f.limit {
		rec.holds |= holdPostQ
		f.queue.Push(rec)
		return
	}
	f.outstanding++
	f.post(rec)
}

func (f *flowCtl) pump() {
	for f.outstanding < f.limit && f.queue.Len() > 0 {
		rec := f.queue.Pop()
		rec.holds &^= holdPostQ
		f.read(rec)
	}
}

// complete is the one send-completion handler: it settles the limiter and
// arbiter accounting of the post, lets go of the RNIC's hold, then does what
// the record's kind does with a completion. unposted: the QP refused the post.
func (c *Context) complete(rec *msgRec, cqe *rnic.CQE, unposted bool) {
	f, s, gen := c.flow, rec.sched, rec.schedGen
	limited := rec.kind == recFrag // the one kind that goes through read
	if limited {
		f.outstanding--
		if !unposted {
			f.pump()
		}
	}
	if s != nil && s.gen == gen {
		s.pending--
	}
	ch, l := rec.ch, rec.lk
	ok := cqe.Status == rnic.StatusOK
	switch rec.kind {
	case recFrame:
		c.drop(rec, holdNIC)
		if !ok && l.current(cqe) {
			l.fail(fmt.Errorf("xrdma: send failed: %v", cqe.Status))
		}
	case recProbe: // the keepalive's verdict, unless the link moved on
		c.drop(rec, holdNIC)
		if l.current(cqe) {
			if l.kaProbing = false; !ok {
				l.keepaliveDead(c.eng.Now())
			} else {
				l.lastComm = c.eng.Now()
			}
		}
	case recWrite:
		cb, id, start, n := rec.done, rec.msgID, rec.enqAt, rec.size
		c.drop(rec, holdNIC)
		ch.wrote(cqe, id, start, n, cb)
	case recFrag:
		p := rec.parent
		c.drop(rec, holdNIC)
		if !ok && p.failed == rnic.StatusOK {
			p.failed = cqe.Status
		}
		if p.remaining--; p.remaining == 0 {
			c.fetched(p)
		}
	}
	if s != nil && s.gen == gen {
		s.drain()
	}
	if limited && unposted {
		f.pump()
	}
}

// ---------------------------------------------------------------------------
// Tenant admission: token-bucket rate limiting + send-window partition.
//
// admit runs in pump() immediately before transmit, so a true return is
// always followed by exactly one frame: tokens are charged here, the
// window slot in transmit. A false return parks the channel on the
// tenant's FIFO waiter list; acks, refills and rewinds wake it. A
// zero-tenant context never reaches any of this.

func (t *Tenant) admit(ch *Channel, cost int) bool {
	if t.cfg.SendWindow > 0 && t.inflight >= t.cfg.SendWindow {
		t.WinStalls++
		t.wait(ch)
		return false
	}
	if t.cfg.RateBps > 0 {
		t.refill()
		if t.tokens < float64(cost) {
			t.RateStalls++
			t.wait(ch)
			t.armRefill(cost)
			return false
		}
		t.tokens -= float64(cost)
	}
	return true
}

// refill credits tokens for the time elapsed since the last refill,
// capped at the bucket depth.
func (t *Tenant) refill() {
	now := t.ctx.eng.Now()
	if dt := now.Sub(t.lastRefill); dt > 0 {
		t.tokens = min(t.tokens+float64(t.cfg.RateBps)*float64(dt)/float64(sim.Second), float64(t.cfg.BurstBytes))
	}
	t.lastRefill = now
}

// armRefill schedules one wake at the instant the bucket covers cost.
// Only one refill event exists per tenant, so a thundering herd of
// stalled channels costs a single timer.
func (t *Tenant) armRefill(cost int) {
	if t.refillArmed {
		return
	}
	deficit := float64(cost) - t.tokens
	if deficit <= 0 {
		deficit = 1
	}
	d := sim.Duration(deficit*float64(sim.Second)/float64(t.cfg.RateBps)) + 1
	t.refillArmed = true
	t.ctx.eng.AfterBg(d, func() {
		t.refillArmed = false
		t.wakeWaiters()
	})
}

func (t *Tenant) wait(ch *Channel) {
	if ch.tenantWaiting {
		return
	}
	ch.tenantWaiting = true
	t.waiters = append(t.waiters, ch)
}

// wakeWaiters re-pumps every parked channel in FIFO order. The slice is
// swapped out first: a still-blocked channel re-registers, which must
// not grow the list being walked.
func (t *Tenant) wakeWaiters() {
	if len(t.waiters) == 0 {
		return
	}
	ws := t.waiters
	t.waiters = nil
	for _, ch := range ws {
		ch.tenantWaiting = false
		if !ch.closed {
			ch.pump()
		}
	}
}

// noteSend charges one window-partition slot at transmit time.
func (t *Tenant) noteSend(ch *Channel) {
	t.inflight++
	ch.tenantInflight++
}

// noteAcked releases the slot when the frame's ack lands.
func (t *Tenant) noteAcked(ch *Channel) {
	t.inflight--
	ch.tenantInflight--
	t.wakeWaiters()
}

// tenantRewind reconciles the partition when a channel's tx window is
// rewound (teardown, QP adoption replay): the channel's contribution is
// in-flight no longer; requeueUnacked re-charges what it re-transmits.
func (ch *Channel) tenantRewind() {
	t := ch.tenant
	if t == nil || ch.tenantInflight == 0 {
		return
	}
	t.inflight -= int(ch.tenantInflight)
	ch.tenantInflight = 0
	t.wakeWaiters()
}

// fetchRemote pulls op.size bytes from the peer buffer op names into op.staged
// using fragmented RDMA READs on the channel's QP — "read replace write"
// (§IV-C) with §V-C fragmentation. fetched runs once every fragment has
// landed, the first failure, if any, in op.failed.
func (f *flowCtl) fetchRemote(op *msgRec) {
	l := op.ch.lk
	size, raddr, rkey := op.size, op.wr.RAddr, op.wr.RKey
	frag := f.ctx.cfg.FragmentSize
	if frag <= 0 || frag > size {
		frag = size
	}
	n := (size + frag - 1) / frag
	if n == 0 {
		n = 1
	}
	if n > 1 {
		f.Fragments += int64(n)
	}
	op.qp, op.remaining = l.qp, n
	for off := 0; off < size || (size == 0 && off == 0); off += frag {
		seg := min(size-off, frag)
		rec := f.ctx.newRec(recFrag, op.ch)
		rec.parent, rec.lk, rec.qp = op, l, l.qp
		rec.wr = rnic.SendWR{
			Op:       rnic.OpRead,
			Len:      seg,
			Local:    op.staged.Addr + uint64(off),
			RAddr:    raddr + uint64(off),
			RKey:     rkey,
			SizeOnly: op.wr.SizeOnly,
		}
		f.read(rec)
		if size == 0 {
			break
		}
	}
}

// fetched hands a finished fetch to its consumer and retires the op.
func (c *Context) fetched(op *msgRec) {
	ch, msg, buf, qp, st, err := op.ch, op.msg, op.staged, op.qp, op.failed, op.err
	id, start, size, readCB, sizeOnly := op.msgID, op.enqAt, op.size, op.readCB, op.wr.SizeOnly
	c.drop(op, holdOp)
	if msg != nil {
		ch.pulled(msg, buf, sizeOnly, qp, start, st, err)
	} else {
		ch.readDone(id, start, size, buf, st, err, readCB)
	}
}
