package rnic

import "xrdma/internal/sim"

// qpCacheMissCost is a context miss: a PCIe round trip to fetch QP state
// from host memory.
const qpCacheMissCost sim.Duration = 120 * sim.Nanosecond

// qpCacheLines is the context SRAM's size in QP contexts.
const qpCacheLines = 1024

// qpCache models the RNIC's on-chip QP context SRAM. The paper's §VII-F
// observation — "cache influence on performance is almost below 10% even
// when the number of QP grows up to 60K" — falls out of the small miss
// cost relative to end-to-end latency; the E11 sweep verifies it.
//
// The LRU order is a sim.Ring through the QPs themselves (QP.lru; a QP is
// cached while it is linked), newest the most recent, so a touch is pointer
// work: no lookup, and a miss allocates nothing. A QP recycled through RESET
// keeps its links, and a destroyed QP keeps its entry until it ages out,
// exactly as the context SRAM would keep a dead QPN's line.
type qpCache struct {
	cap  int
	n    int
	ring sim.Ring[QP, *QP]
}

// touch marks the QP context used and reports whether it was a miss.
func (c *qpCache) touch(qp *QP) bool {
	if qp.lru[1] != nil {
		if qp != c.ring.Newest() {
			c.ring.Swap(qp, nil)
			c.ring.Push(qp)
		}
		return false
	}
	if c.n >= c.cap {
		c.ring.Swap(c.ring.Oldest(), nil)
		c.n--
	}
	c.ring.Push(qp)
	c.n++
	return true
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
