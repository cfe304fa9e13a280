package xrdma

import "xrdma/internal/rnic"

// QPCache recycles reset queue pairs so connection establishment skips the
// expensive CreateQP hardware command (§IV-E: establishment drops from
// 3946 µs to 2451 µs, a 38% saving in the paper's measurement). Every QP an
// exclusive link gives up enters the cache — closed, broken or still busy —
// and Connect pops one when available. A QP is created only on a miss, so the
// cache never holds more than the most QPs the context had out at once: it
// needs no cap.
type QPCache struct {
	ctx  *Context
	free []*rnic.QP

	Hits, Misses int64
}

// Len reports cached QPs.
func (q *QPCache) Len() int { return len(q.free) }

// Get pops a recycled QP, or nil (miss → caller creates).
func (q *QPCache) Get() *rnic.QP {
	if len(q.free) == 0 {
		q.Misses++
		return nil
	}
	qp := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.Hits++
	return qp
}

// Put resets a QP and shelves it, whatever its state. A QP with work still in
// flight goes through ERROR first: each of its WRs completes FLUSHED, so the
// completion handlers that own staged buffers and flow-control slots hear, as
// from a destroy. RESET (IBV_QPS_RESET, §IV-E) then makes it connectable again.
func (q *QPCache) Put(qp *rnic.QP) {
	if qp == nil {
		return
	}
	nic := q.ctx.vctx.NIC
	if qp.SendQueueLen() > 0 {
		_ = nic.ModifyQPNow(qp, rnic.QPError, 0, 0) // any state → ERROR cannot fail
	}
	_ = nic.ModifyQPNow(qp, rnic.QPReset, 0, 0) // nor can any state → RESET
	q.free = append(q.free, qp)
}
