package xrdma

import (
	"slices"
	"testing"
	"testing/quick"

	"xrdma/internal/sim"
)

func memWorld(t testing.TB, mutate func(*Config)) (*testWorld, *MemCache) {
	t.Helper()
	w := newWorld(t, 1, func(i int, cfg *Config) {
		cfg.MRSize = 1 << 20
		if mutate != nil {
			mutate(cfg)
		}
	})
	return w, w.ctxs[0].Mem
}

func TestMemCacheGrowAndAlloc(t *testing.T) {
	w, m := memWorld(t, nil)
	var bufs []Buffer
	for i := 0; i < 8; i++ {
		m.Alloc(200<<10, func(b Buffer, err error) {
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, b)
		})
	}
	w.eng.Run()
	if len(bufs) != 8 {
		t.Fatalf("allocated %d/8", len(bufs))
	}
	if len(m.regions) < 2 {
		t.Fatalf("8×200KB in 1MB regions should grow ≥2, got %d", len(m.regions))
	}
	if m.InUseBytes != 8*200<<10 {
		t.Fatalf("in-use = %d", m.InUseBytes)
	}
	// No overlaps.
	for i := range bufs {
		for j := i + 1; j < len(bufs); j++ {
			a, b := bufs[i], bufs[j]
			if a.MR == b.MR && a.Addr < b.Addr+uint64(b.Len) && b.Addr < a.Addr+uint64(a.Len) {
				t.Fatalf("overlapping allocations %d and %d", i, j)
			}
		}
	}
	for _, b := range bufs {
		m.Free(b)
	}
	if m.InUseBytes != 0 {
		t.Fatalf("in-use after free = %d", m.InUseBytes)
	}
}

func TestMemCacheCoalescing(t *testing.T) {
	w, m := memWorld(t, nil)
	var bufs []Buffer
	for i := 0; i < 4; i++ {
		m.Alloc(128<<10, func(b Buffer, err error) { bufs = append(bufs, b) })
	}
	w.eng.Run()
	if len(m.regions) != 1 || m.OccupiedBytes() != 512<<10 {
		t.Fatalf("4×128KB should fit the first, 512KB region, got %d regions of %d bytes", len(m.regions), m.OccupiedBytes())
	}
	// Free all; a full-region alloc must then succeed without growth.
	for _, b := range bufs {
		m.Free(b)
	}
	got := false
	m.Alloc(512<<10, func(b Buffer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = true
	})
	w.eng.Run()
	if !got {
		t.Fatal("full-region alloc failed")
	}
	if len(m.regions) != 1 {
		t.Fatalf("coalescing failed: grew to %d regions", len(m.regions))
	}
}

// TestRegionsFollowNeed is the cache's sizing rule (MemCache): a region is the
// smallest power of two at least twice the larger of floor and the waiting
// block and at least the capacity so far, MRSize at most; only idle MRSize
// regions are given back.
func TestRegionsFollowNeed(t *testing.T) {
	const floor, mrSize = 256 << 10, 4 << 20
	t.Run("classic-pair", func(t *testing.T) {
		w := newWorld(t, 2, nil)
		cli, srv := w.connect(t, 0, 1, 5000)
		echoServer(srv)
		cli.SendMsg(make([]byte, 64), 0, nil)
		w.eng.Run()
		for i, c := range w.ctxs {
			if c.Mem.floor() != floor || len(c.Mem.regions) != 1 || c.Mem.OccupiedBytes() != 2*floor {
				t.Errorf("node %d: floor %d, %d regions, %d bytes; want one region of 512 KiB", i, c.Mem.floor(), len(c.Mem.regions), c.Mem.OccupiedBytes())
			}
		}
	})
	t.Run("ramp-and-shrink", func(t *testing.T) {
		w := newWorld(t, 1, nil)
		m := w.ctxs[0].Mem
		var held []Buffer
		take := func(until int64) {
			for m.OccupiedBytes() < until {
				m.Alloc(floor, func(b Buffer, _ error) { held = append(held, b) })
				w.eng.Run()
			}
		}
		take(4 * mrSize)
		var got []int
		for _, r := range m.regions {
			got = append(got, r.mr.Len)
		}
		// Capacity 512 KiB, 1, 2, 4 MiB (doubling), then one MRSize per grow.
		if want := []int{2 * floor, 2 * floor, 4 * floor, 8 * floor, mrSize, mrSize, mrSize}; !slices.Equal(got, want) || m.Grows != int64(len(want)) {
			t.Fatalf("regions %v after %d grows, want %v", got, m.Grows, want)
		}
		for _, b := range held {
			m.Free(b)
		}
		held = nil
		w.eng.RunFor(200 * sim.Millisecond)
		if len(m.regions) != 4 || m.OccupiedBytes() != mrSize || m.Shrinks != 3 {
			t.Fatalf("%d regions (%d bytes), %d shrinks after idling; want the ramp's 4 (one MRSize) kept, 3 given back", len(m.regions), m.OccupiedBytes(), m.Shrinks)
		}
		// The kept ramp serves without a grow; past it, regions are MRSize.
		take(mrSize + 1)
		if m.Grows != 8 || m.regions[4].mr.Len != mrSize {
			t.Fatalf("%d grows, a %d-byte region past the kept ramp; want 8 and MRSize", m.Grows, m.regions[4].mr.Len)
		}
		for _, b := range held {
			m.Free(b)
		}
	})
	t.Run("connect-churn", func(t *testing.T) {
		w := newWorld(t, 2, nil)
		var grows [2]int64
		for round := 0; round < 6; round++ {
			var chans []*Channel
			for k := 0; k < 4; k++ {
				cli, srv := w.connect(t, 0, 1, 5000+4*round+k)
				chans = append(chans, cli, srv)
			}
			for _, ch := range chans {
				ch.Close()
			}
			w.eng.RunFor(200 * sim.Millisecond) // past memShrinkIdle
			for i, c := range w.ctxs {
				if round == 0 {
					grows[i] = c.Mem.Grows
				} else if c.Mem.Grows != grows[i] || c.Mem.Shrinks != 0 {
					t.Fatalf("round %d, node %d: %d grows (%d after the ramp), %d shrinks; want no re-registration", round, i, c.Mem.Grows, grows[i], c.Mem.Shrinks)
				}
			}
		}
		w.checkAtRest(t, 0, 0)
	})
}

func TestMemCacheOversizeRejected(t *testing.T) {
	w, m := memWorld(t, nil)
	var gotErr error
	m.Alloc(2<<20, func(b Buffer, err error) { gotErr = err })
	w.eng.Run()
	if gotErr == nil {
		t.Fatal("allocation above MR size must fail")
	}
}

// TestMemCacheShrink: regions idle past memShrinkIdle go back at the next
// housekeeping tick, all but one warm region.
func TestMemCacheShrink(t *testing.T) {
	w, m := memWorld(t, nil)
	var bufs []Buffer
	for i := 0; i < 6; i++ {
		m.Alloc(512<<10, func(b Buffer, err error) { bufs = append(bufs, b) })
	}
	w.eng.Run()
	grown := len(m.regions)
	if grown < 3 {
		t.Fatalf("regions = %d", grown)
	}
	for _, b := range bufs {
		m.Free(b)
	}
	w.eng.RunFor(200 * sim.Millisecond)
	if len(m.regions) >= grown {
		t.Fatalf("idle regions not reclaimed: %d → %d", grown, len(m.regions))
	}
	if len(m.regions) < 1 {
		t.Fatal("shrink must keep one warm region")
	}
	if m.Shrinks == 0 {
		t.Fatal("shrink counter untouched")
	}
}

// Property: any alloc/free interleaving keeps accounting consistent and
// allocations disjoint.
func TestMemCacheAllocatorProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		w, m := memWorld(t, nil)
		live := []Buffer{}
		ok := true
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				idx := int(op/3) % len(live)
				m.Free(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			} else {
				size := int(op%64)*1024 + 64
				m.Alloc(size, func(b Buffer, err error) {
					if err != nil {
						ok = false
						return
					}
					live = append(live, b)
				})
				w.eng.Run()
			}
		}
		var want int64
		for i, a := range live {
			want += int64(a.Len)
			for j := i + 1; j < len(live); j++ {
				b := live[j]
				if a.MR == b.MR && a.Addr < b.Addr+uint64(b.Len) && b.Addr < a.Addr+uint64(a.Len) {
					return false
				}
			}
		}
		return ok && m.InUseBytes == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQPCachePutGet(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, _ := w.connect(t, 0, 1, 5100)
	q := w.ctxs[0].QPs
	if q.Len() != 0 {
		t.Fatal("cache should start empty")
	}
	cli.Close()
	w.eng.Run()
	if q.Len() != 1 {
		t.Fatalf("cache len = %d after close", q.Len())
	}
	h0, m0 := q.Hits, q.Misses
	qp := q.Get()
	if qp == nil {
		t.Fatal("Get returned nil with cache populated")
	}
	if q.Get() != nil {
		t.Fatal("cache should be empty now")
	}
	if q.Hits != h0+1 || q.Misses != m0+1 {
		t.Fatalf("hits/misses delta = %d/%d", q.Hits-h0, q.Misses-m0)
	}
	// Returned QP must be reusable from RESET.
	if qp.State.String() != "RESET" {
		t.Fatalf("cached QP in state %v", qp.State)
	}
	q.Put(qp)
	q.Put(nil) // no-op
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}
