package xrdma

import (
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
	queue       []flowItem

	// Counters.
	Queued    int64 // WRs that had to wait for a slot
	Fragments int64 // fragments produced by splitting
	Posted    int64
	PeakQueue int
}

type flowItem struct {
	qp *rnic.QP
	wr *rnic.SendWR
	cb func(rnic.CQE)
}

func newFlowCtl(ctx *Context, limit int) *flowCtl {
	return &flowCtl{ctx: ctx, limit: limit}
}

// post submits a WR; cb fires on completion. The outstanding limit governs
// the bulk one-sided data plane (the fragmented READs of the rendezvous
// path): §V-C's congestion problem is "large size requests block the RNIC".
// Everything else bypasses it: inline SENDs are already bounded by the
// per-channel seq-ack window — throttling them would only add latency to
// the traffic flow control exists to protect.
func (f *flowCtl) post(qp *rnic.QP, wr *rnic.SendWR, cb func(rnic.CQE)) {
	switch {
	case wr.Op != rnic.OpRead:
		f.postDirect(qp, wr, cb)
	case f.outstanding >= f.limit:
		f.Queued++
		f.queue = append(f.queue, flowItem{qp: qp, wr: wr, cb: cb})
		if len(f.queue) > f.PeakQueue {
			f.PeakQueue = len(f.queue)
		}
	default:
		f.postRead(qp, wr, cb)
	}
}

// postDirect bypasses the limiter — keepalive probes and acks are tiny
// and must not sit behind queued bulk data.
func (f *flowCtl) postDirect(qp *rnic.QP, wr *rnic.SendWR, cb func(rnic.CQE)) {
	wr.ID = f.ctx.nextWRID()
	if cb != nil {
		f.ctx.wrCBs[wr.ID] = cb
	}
	if err := qp.PostSend(wr); err != nil {
		delete(f.ctx.wrCBs, wr.ID)
		if cb != nil {
			cb(rnic.CQE{WRID: wr.ID, QPN: qp.QPN, Op: wr.Op, Status: rnic.StatusFlushed})
		}
	}
}

// postRead issues one READ under the outstanding count; its completion
// frees the slot for the next queued one.
func (f *flowCtl) postRead(qp *rnic.QP, wr *rnic.SendWR, cb func(rnic.CQE)) {
	wr.ID = f.ctx.nextWRID()
	f.outstanding++
	f.Posted++
	f.ctx.wrCBs[wr.ID] = func(cqe rnic.CQE) {
		f.outstanding--
		f.pump()
		if cb != nil {
			cb(cqe)
		}
	}
	if err := qp.PostSend(wr); err != nil {
		// QP unusable (broken mid-flight): complete as flushed.
		delete(f.ctx.wrCBs, wr.ID)
		f.outstanding--
		if cb != nil {
			cb(rnic.CQE{WRID: wr.ID, QPN: qp.QPN, Op: wr.Op, Status: rnic.StatusFlushed})
		}
		f.pump()
	}
}

func (f *flowCtl) pump() {
	for f.outstanding < f.limit && len(f.queue) > 0 {
		it := f.queue[0]
		f.queue = f.queue[1:]
		f.postRead(it.qp, it.wr, it.cb)
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
		t.tokens += float64(t.cfg.RateBps) * float64(dt) / float64(sim.Second)
		if depth := float64(t.cfg.BurstBytes); t.tokens > depth {
			t.tokens = depth
		}
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
	t.inflight -= ch.tenantInflight
	ch.tenantInflight = 0
	t.wakeWaiters()
}

// fetchRemote pulls size bytes from a peer's staged buffer into local
// registered memory using fragmented RDMA READs — the "read replace
// write" data path (§IV-C) with §V-C fragmentation. done fires once every
// fragment has landed; a failed fragment reports its status.
func (f *flowCtl) fetchRemote(qp *rnic.QP, raddr uint64, rkey uint32, local Buffer, size int, done func(rnic.Status)) {
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
	remaining := n
	failed := rnic.StatusOK
	for off := 0; off < size || (size == 0 && off == 0); off += frag {
		seg := size - off
		if seg > frag {
			seg = frag
		}
		wr := &rnic.SendWR{
			Op:    rnic.OpRead,
			Len:   seg,
			Local: local.Addr + uint64(off),
			RAddr: raddr + uint64(off),
			RKey:  rkey,
		}
		f.post(qp, wr, func(cqe rnic.CQE) {
			if cqe.Status != rnic.StatusOK && failed == rnic.StatusOK {
				failed = cqe.Status
			}
			remaining--
			if remaining == 0 {
				done(failed)
			}
		})
		if size == 0 {
			break
		}
	}
}
