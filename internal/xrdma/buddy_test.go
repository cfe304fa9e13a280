package xrdma

import (
	"errors"
	"sync"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// TestBuddySplitMergeInvariants exercises the buddy allocator's core
// contract: odd-sized requests round up to power-of-two blocks (internal
// fragmentation is visible as PoolInUseBytes − InUseBytes), frees merge
// with their buddies in any order, and a fully drained region recovers
// its single full-capacity block.
func TestBuddySplitMergeInvariants(t *testing.T) {
	w, m := memWorld(t, nil)

	sizes := []int{300, 700, 5000, 100 << 10, 512, 9000}
	blocks := []int64{512, 1024, 8192, 128 << 10, 512, 16 << 10}
	bufs := make([]Buffer, len(sizes))
	for i, sz := range sizes {
		i, sz := i, sz
		m.Alloc(sz, func(b Buffer, err error) {
			if err != nil {
				t.Errorf("alloc %d: %v", sz, err)
			}
			bufs[i] = b
		})
	}
	w.eng.Run()

	if len(m.regions) != 1 {
		t.Fatalf("regions = %d, want 1 (all blocks fit one region)", len(m.regions))
	}
	var wantReq, wantBlock int64
	for i, sz := range sizes {
		wantReq += int64(sz)
		wantBlock += blocks[i]
	}
	if m.InUseBytes != wantReq {
		t.Errorf("InUseBytes = %d, want requested sum %d", m.InUseBytes, wantReq)
	}
	if m.PoolInUseBytes != wantBlock {
		t.Errorf("PoolInUseBytes = %d, want block-rounded sum %d", m.PoolInUseBytes, wantBlock)
	}

	// Free in interleaved order: merges must not depend on LIFO discipline.
	for _, i := range []int{3, 0, 5, 2, 4, 1} {
		m.Free(bufs[i])
	}
	if m.InUseBytes != 0 || m.PoolInUseBytes != 0 {
		t.Fatalf("after freeing all: in-use %d / pool %d, want 0/0", m.InUseBytes, m.PoolInUseBytes)
	}

	// The strongest merge invariant: the drained region hands out its full
	// capacity (512 KiB, the first region's size) as ONE block again, with no
	// growth.
	full, ok := m.tryAlloc(nil, m.regions[0].mr.Len)
	if !ok {
		t.Fatal("full-capacity alloc failed after drain — buddies did not re-merge")
	}
	if len(m.regions) != 1 {
		t.Fatalf("regions = %d after full-capacity alloc, want 1", len(m.regions))
	}
	m.Free(full)
}

// TestTenantMemBudget pins the budget accounting contract: charges are
// block-rounded, overruns reject synchronously with ErrTenantBudget (and
// count as MemRejects + a tenant.shed flight dump naming the tenant), and
// frees restore headroom.
func TestTenantMemBudget(t *testing.T) {
	w, m := memWorld(t, func(cfg *Config) {
		cfg.Tenants = []TenantConfig{{Name: "a", MemBudget: 64 << 10}}
		cfg.TenantShedCooldown = 1 * sim.Millisecond
	})
	ten := w.ctxs[0].Tenant("a")
	if ten == nil {
		t.Fatal("tenant a not registered")
	}

	// 40 KiB rounds to a 64 KiB block — exactly the budget, so it fits.
	var first Buffer
	m.AllocT(ten, 40<<10, func(b Buffer, err error) {
		if err != nil {
			t.Fatalf("in-budget alloc: %v", err)
		}
		first = b
	})
	w.eng.Run()
	if got := ten.memUsed; got != 64<<10 {
		t.Fatalf("MemUsed = %d, want block-rounded 64KiB", got)
	}

	// One more byte of block is an overrun: synchronous, loud, counted.
	var rejected error
	m.AllocT(ten, 512, func(_ Buffer, err error) { rejected = err })
	if !errors.Is(rejected, ErrTenantBudget) {
		t.Fatalf("overrun alloc err = %v, want ErrTenantBudget (synchronously)", rejected)
	}
	if ten.MemRejects != 1 {
		t.Errorf("MemRejects = %d, want 1", ten.MemRejects)
	}
	if _, ok, err := m.allocSync(ten, 512); ok || !errors.Is(err, ErrTenantBudget) {
		t.Errorf("allocSync admitted an over-budget allocation (ok=%v err=%v)", ok, err)
	}
	if ten.MemRejects != 2 {
		t.Errorf("MemRejects = %d after allocSync, want 2", ten.MemRejects)
	}

	// The first breach of the episode trips a flight dump whose QPN field
	// names the culprit tenant id.
	var shed int
	for _, d := range w.ctxs[0].Telemetry().Flight.Dumps() {
		if d.Reason == telemetry.CatTenantShed {
			shed++
			if d.QPN != uint32(ten.ID()) {
				t.Errorf("shed dump names tenant %d, want %d", d.QPN, ten.ID())
			}
		}
	}
	if shed == 0 {
		t.Error("budget breach tripped no tenant.shed flight dump")
	}

	// Freeing restores headroom: the same request now succeeds.
	m.Free(first)
	if got := ten.memUsed; got != 0 {
		t.Fatalf("MemUsed = %d after free, want 0", got)
	}
	if b, ok, _ := m.allocSync(ten, 512); !ok {
		t.Fatal("alloc after free should succeed")
	} else {
		m.Free(b)
	}
	w.eng.Run()
}

// TestTenantAllocRace runs four fully independent tenanted worlds on
// concurrent goroutines doing budget-charged alloc/free churn. Worlds
// share no state, so -race failures here mean the allocator or tenant
// accounting leaked a global.
func TestTenantAllocRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, m := memWorld(t, func(cfg *Config) {
				cfg.Tenants = []TenantConfig{{Name: "a", MemBudget: 256 << 10}}
				cfg.TenantShedCooldown = 1 * sim.Millisecond
			})
			ten := w.ctxs[0].Tenant("a")
			var live []Buffer
			for i := 0; i < 400; i++ {
				sz := 512 << (i % 6) // 512 B .. 16 KiB
				m.AllocT(ten, sz, func(b Buffer, err error) {
					if err == nil {
						live = append(live, b)
					}
				})
				if len(live) > 8 {
					m.Free(live[0])
					live = live[1:]
				}
				w.eng.Run()
			}
			for _, b := range live {
				m.Free(b)
			}
			w.eng.Run()
			if m.InUseBytes != 0 || ten.memUsed != 0 {
				t.Errorf("world leaked: in-use %d, tenant %d", m.InUseBytes, ten.memUsed)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBuddyAlloc measures the steady-state alloc/free path: after the
// free lists warm up, popFront/pushSorted reuse slice capacity so a mixed
// working set runs at zero heap allocations per operation.
func BenchmarkBuddyAlloc(b *testing.B) {
	w, m := memWorld(b, nil)
	m.Alloc(512, func(Buffer, error) {})
	w.eng.Run() // registers the region

	sizes := [...]int{512, 2048, 16 << 10, 64 << 10}
	var live [16]Buffer
	// Warm-up pass: grow every free-list slice to its steady-state footprint.
	for i := 0; i < 4*len(live); i++ {
		if buf, ok := m.tryAlloc(nil, sizes[i%len(sizes)]); ok {
			m.Free(live[i%len(live)])
			live[i%len(live)] = buf
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, ok := m.tryAlloc(nil, sizes[i%len(sizes)])
		if !ok {
			b.Fatal("steady-state alloc failed")
		}
		m.Free(live[i%len(live)])
		live[i%len(live)] = buf
	}
}
