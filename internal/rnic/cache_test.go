package rnic

import (
	"slices"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// cacheNIC is a NIC whose QP context cache holds entries lines, and qps QPs
// on it (QPNs 1…qps), none touched yet.
func cacheNIC(t testing.TB, entries, qps int) (*NIC, []*QP) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.QPCacheEntries = entries
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	n := New(eng, fab.Host(0), cfg)
	out := make([]*QP, qps)
	for i := range out {
		out[i] = n.AllocQPNow(4, 4, NewCQ(8), NewCQ(8), nil)
	}
	return n, out
}

// lru walks the cache ring from most to least recent.
func (c *qpCache) lru() []uint32 {
	var out []uint32
	for qp := c.head; qp != nil && len(out) <= c.n; qp = qp.lruNext {
		if out = append(out, qp.QPN); qp.lruNext == c.head {
			break
		}
	}
	return out
}

// The context cache is an LRU of capacity 3 keyed by the QP: the hits and
// misses below are the ones the map-and-list cache it replaced gave on the
// same touches. A destroyed QP's line stays until it ages out, and a QP
// recycled through RESET keeps its line (and its place).
func TestQPCacheLRUContract(t *testing.T) {
	n, qps := cacheNIC(t, 3, 5)
	q := func(qpn int) *QP { return qps[qpn-1] }
	steps := []struct {
		op   string // "touch", "destroy" or "reset"
		qpn  int
		miss bool
		lru  []uint32 // most recent first, after the step
	}{
		{"touch", 1, true, []uint32{1}},
		{"touch", 2, true, []uint32{2, 1}},
		{"touch", 3, true, []uint32{3, 2, 1}},
		{"touch", 1, false, []uint32{1, 3, 2}},
		{"touch", 1, false, []uint32{1, 3, 2}},
		{"touch", 4, true, []uint32{4, 1, 3}},    // evicts 2
		{"touch", 2, true, []uint32{2, 4, 1}},    // evicts 3
		{"destroy", 4, false, []uint32{2, 4, 1}}, // the line lingers
		{"touch", 1, false, []uint32{1, 2, 4}},
		{"touch", 3, true, []uint32{3, 1, 2}}, // the destroyed QP's line ages out
		{"reset", 1, false, []uint32{3, 1, 2}},
		{"touch", 1, false, []uint32{1, 3, 2}}, // recycled, still cached
		{"touch", 5, true, []uint32{5, 1, 3}},
		{"reset", 3, false, []uint32{5, 1, 3}},
		{"touch", 2, true, []uint32{2, 5, 1}}, // evicts the recycled 3
		{"touch", 3, true, []uint32{3, 2, 5}},
		{"touch", 5, false, []uint32{5, 3, 2}}, // from the tail
		{"touch", 3, false, []uint32{3, 5, 2}}, // from the middle
	}
	for i, s := range steps {
		h0, m0 := n.Counters.QPCacheHits, n.Counters.QPCacheMisses
		switch s.op {
		case "touch":
			cost := n.touchQP(q(s.qpn))
			if miss := n.Counters.QPCacheMisses > m0; miss != s.miss || (cost != 0) != s.miss || n.Counters.QPCacheHits+n.Counters.QPCacheMisses != h0+m0+1 {
				t.Fatalf("step %d: touch %d: miss=%v cost %v, want miss=%v", i, s.qpn, miss, cost, s.miss)
			}
		case "destroy":
			n.DestroyQP(q(s.qpn))
		case "reset":
			if err := n.ModifyQPNow(q(s.qpn), QPReset, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.cache.lru(); !slices.Equal(got, s.lru) || n.cache.n != len(s.lru) {
			t.Fatalf("step %d (%s %d): LRU %v (%d lines), want %v", i, s.op, s.qpn, got, n.cache.n, s.lru)
		}
	}
}

// BenchmarkQPCacheMiss touches five QPs round robin through a four-line
// cache, so every touch misses and evicts. Contract: 0 allocs/op.
func BenchmarkQPCacheMiss(b *testing.B) {
	n, qps := cacheNIC(b, 4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.touchQP(qps[i%len(qps)])
	}
	b.StopTimer()
	if n.Counters.QPCacheHits != 0 {
		b.Fatalf("%d hits: the touches were meant to miss", n.Counters.QPCacheHits)
	}
}
