package rnic

import "xrdma/internal/sim"

// qpCacheMissCost is a context miss: a PCIe round trip to fetch QP state
// from host memory.
const qpCacheMissCost sim.Duration = 120 * sim.Nanosecond

// qpCache models the RNIC's on-chip QP context SRAM. The paper's §VII-F
// observation — "cache influence on performance is almost below 10% even
// when the number of QP grows up to 60K" — falls out of the small miss
// cost relative to end-to-end latency; the E11 sweep verifies it.
//
// The LRU order is an intrusive ring through the QPs themselves (QP.lruPrev,
// QP.lruNext; a QP is cached while lruNext is set), so a touch is pointer
// work: no lookup, and a miss allocates nothing. A QP recycled through RESET
// keeps its links, and a destroyed QP keeps its entry until it ages out,
// exactly as the context SRAM would keep a dead QPN's line.
type qpCache struct {
	cap  int
	n    int
	head *QP // most recent; head.lruPrev is the least recent
}

// touch marks the QP context used and reports whether it was a miss.
func (c *qpCache) touch(qp *QP) bool {
	if c.cap <= 0 {
		return false // cache modelling disabled
	}
	if qp.lruNext != nil {
		if qp != c.head {
			c.unlink(qp)
			c.pushFront(qp)
		}
		return false
	}
	if c.n >= c.cap {
		back := c.head.lruPrev
		c.unlink(back)
		back.lruPrev, back.lruNext = nil, nil
		c.n--
	}
	c.pushFront(qp)
	c.n++
	return true
}

func (c *qpCache) unlink(qp *QP) {
	if qp.lruNext == qp {
		c.head = nil
		return
	}
	qp.lruPrev.lruNext, qp.lruNext.lruPrev = qp.lruNext, qp.lruPrev
	if c.head == qp {
		c.head = qp.lruNext
	}
}

func (c *qpCache) pushFront(qp *QP) {
	if c.head == nil {
		qp.lruPrev, qp.lruNext = qp, qp
	} else {
		qp.lruPrev, qp.lruNext = c.head.lruPrev, c.head
		c.head.lruPrev.lruNext, c.head.lruPrev = qp, qp
	}
	c.head = qp
}

// touchQP accounts a context access and returns the added latency.
func (n *NIC) touchQP(qp *QP) sim.Duration {
	if n.cache.touch(qp) {
		n.Counters.QPCacheMisses++
		return qpCacheMissCost
	}
	n.Counters.QPCacheHits++
	return 0
}
