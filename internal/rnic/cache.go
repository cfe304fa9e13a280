package rnic

import (
	"container/list"

	"xrdma/internal/sim"
)

// qpCacheMissCost is a context miss: a PCIe round trip to fetch QP state
// from host memory.
const qpCacheMissCost sim.Duration = 120 * sim.Nanosecond

// qpCache models the RNIC's on-chip QP context SRAM. The paper's §VII-F
// observation — "cache influence on performance is almost below 10% even
// when the number of QP grows up to 60K" — falls out of the small miss
// cost relative to end-to-end latency; the E11 sweep verifies it.
type qpCache struct {
	cap  int
	ll   *list.List               // front = most recent
	elem map[uint32]*list.Element // qpn → node
}

func newQPCache(capacity int) *qpCache {
	return &qpCache{cap: capacity, ll: list.New(), elem: make(map[uint32]*list.Element)}
}

// touch marks the QP context used and reports whether it was a miss.
func (c *qpCache) touch(qpn uint32) bool {
	if c.cap <= 0 {
		return false // cache modelling disabled
	}
	if e, ok := c.elem[qpn]; ok {
		c.ll.MoveToFront(e)
		return false
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.elem, back.Value.(uint32))
	}
	c.elem[qpn] = c.ll.PushFront(qpn)
	return true
}

// touchQP accounts a context access and returns the added latency.
func (n *NIC) touchQP(qpn uint32) sim.Duration {
	if n.cache.touch(qpn) {
		n.Counters.QPCacheMisses++
		return qpCacheMissCost
	}
	n.Counters.QPCacheHits++
	return 0
}
