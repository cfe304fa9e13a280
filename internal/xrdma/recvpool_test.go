package xrdma

import (
	"bytes"
	"fmt"
	"testing"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// TestRecvSlab holds the slab arithmetic: a pool of n strides is
// ⌈n / ⌊capBytes/stride⌋⌉ cache blocks, every slot lies inside its block at a
// stride multiple from the base, no two slots overlap, a WR id is its pool's
// tag over its slot and names nothing in any other pool, and the cache's
// counters read what the slicing says. The SRQ rows fill a shared receive
// queue (tenants widen the stride by the tenant extension); the last rows are
// the pool a link acquires — one block, or a block per buffer once the
// buffers are too large for a region to hold the pool.
func TestRecvSlab(t *testing.T) {
	check := func(t *testing.T, c *Context, p *recvPool, per, n, stride int) {
		t.Helper()
		if p == nil || p.pending != 0 || p.n != n || p.stride != stride || stride != c.recvBufSize() {
			t.Fatalf("pool %+v, want %d landed slots of %d (recvBufSize %d)", p, n, stride, c.recvBufSize())
		}
		if per = min(per, n); p.per != per || len(p.blocks) != (n+per-1)/per {
			t.Fatalf("%d blocks of %d strides, want %d of %d", len(p.blocks), p.per, (n+per-1)/per, per)
		}
		var inUse, rounded int64
		for i, b := range p.blocks {
			want := min(per, n-i*per) * stride
			if !b.Valid() || b.Len != want {
				t.Fatalf("block %d: valid=%v len=%d, want %d", i, b.Valid(), b.Len, want)
			}
			inUse, rounded = inUse+int64(b.Len), rounded+int64(c.Mem.blockFor(b.Len))
		}
		if c.Mem.InUseBytes != int64(n*stride) || inUse != int64(n*stride) || c.Mem.PoolInUseBytes != rounded {
			t.Errorf("InUseBytes=%d (blocks %d) PoolInUseBytes=%d, want %d and %d", c.Mem.InUseBytes, inUse, c.Mem.PoolInUseBytes, n*stride, rounded)
		}
		if got, want := c.Mem.Allocs-c.Mem.Frees, int64(len(p.blocks)); got != want {
			t.Errorf("%d blocks out of the cache, want %d", got, want)
		}
		// A second pool of the same shape out of the same cache: the slot
		// numbers repeat, the ids do not.
		var other *recvPool
		c.Mem.carve(n, stride, per > 1, func(q *recvPool, _, _ int) { other = q })
		c.eng.Run() // the cache may have to grow for it
		if other == nil || other.pending != 0 || other.tag == p.tag {
			t.Fatalf("second pool %+v beside %+v", other, p)
		}
		seen := make(map[uint64]int, n)
		for slot := 0; slot < n; slot++ {
			id := p.id(slot)
			wr, ok := p.wr(id)
			b := p.blocks[slot/per]
			if !ok || wr.ID != id || int(uint32(id)) != slot || wr.Len != stride {
				t.Fatalf("slot %d: wr=%+v ok=%v, want id %#x len %d", slot, wr, ok, id, stride)
			}
			if off := wr.Addr - b.Addr; wr.Addr < b.Addr || off%uint64(stride) != 0 || off+uint64(stride) > uint64(b.Len) {
				t.Fatalf("slot %d at %#x: not a stride inside its block [%#x,+%d)", slot, wr.Addr, b.Addr, b.Len)
			}
			if prev, dup := seen[wr.Addr]; dup {
				t.Fatalf("slots %d and %d share address %#x", prev, slot, wr.Addr)
			}
			seen[wr.Addr] = slot
			if _, ok := other.wr(id); ok {
				t.Fatalf("slot %d answers in another pool", slot)
			}
			if _, ok := p.wr(other.id(slot)); ok {
				t.Fatalf("another pool's slot %d answers here", slot)
			}
		}
		for _, id := range []uint64{p.id(n), uint64(n - 1), p.id(0) | 1<<63} {
			if _, ok := p.wr(id); ok {
				t.Errorf("id %#x accepted by pool %#x of %d slots", id, p.tag, n)
			}
		}
		if _, ok := (*recvPool)(nil).wr(p.id(0)); ok {
			t.Error("no pool, yet a WR")
		}
		for _, b := range other.blocks {
			c.Mem.Free(b)
		}
	}
	for _, size := range []int{4, 16, 994, 995, 4096} {
		for _, tenants := range []bool{false, true} {
			t.Run(fmt.Sprintf("srq-%d/tenants=%v", size, tenants), func(t *testing.T) {
				w := newWorld(t, 2, func(_ int, cfg *Config) {
					cfg.QPsPerPeer, cfg.SRQSize = 1, size
					if tenants {
						cfg.Tenants = []TenantConfig{{Name: "a"}}
					}
				})
				stride := 4216
				if tenants {
					stride = 4224
				}
				for _, c := range w.ctxs {
					if c.srqPool != nil || c.Mem.InUseBytes != 0 {
						t.Fatal("an idle context already holds SRQ buffers")
					}
				}
				cli, srv := openMuxed(t, w, 0, 1, 6000, 2)
				for i, c := range w.ctxs {
					if c.srq.Len() != size { // (Posted is already past it: the CHAN_OPEN exchange recycled slots)
						t.Fatalf("node %d: %d slots posted, want %d", i, c.srq.Len(), size)
					}
					check(t, c, c.srqPool, (4<<20)/stride, size, stride)
				}
				// Consumed slots come back under their own ids: the queue is full
				// again after traffic, and nothing was allocated to refill it.
				echoServer(srv[0])
				echoServer(srv[1])
				allocs, resps := w.ctxs[1].Mem.Allocs, 0
				for k := 0; k < 3*size && k < 64; k++ {
					cli[k%2].SendMsg(make([]byte, 64), 0, func(_ *Msg, err error) {
						if err == nil {
							resps++
						}
					})
					w.eng.Run()
				}
				c := w.ctxs[1]
				if resps == 0 || c.srq.Len() != size || c.srq.Posted <= int64(size) || c.Mem.Allocs != allocs {
					t.Fatalf("%d responses; SRQ %d deep (%d ever posted), %d allocations since the fill; want a full queue recycled in place",
						resps, c.srq.Len(), c.srq.Posted, c.Mem.Allocs-allocs)
				}
				check(t, c, c.srqPool, (4<<20)/stride, size, stride)
			})
		}
	}
	links := []struct {
		name             string
		depth, small, mr int
		per              int // 0: one block holds the pool
	}{
		{"depth=4", 4, 4096, 4 << 20, 0},
		{"depth=32", 32, 4096, 4 << 20, 0},
		{"64K-buffers/256K-regions", 16, 64 << 10, 256 << 10, 1},
	}
	for _, r := range links {
		t.Run("link/"+r.name, func(t *testing.T) {
			w := newWorld(t, 2, func(_ int, cfg *Config) {
				cfg.WindowDepth, cfg.SmallMsgSize, cfg.MRSize = r.depth, r.small, r.mr
			})
			cli, srv := w.connect(t, 0, 1, 5000)
			echoServer(srv)
			for k := 0; k < 3*r.depth; k++ {
				cli.SendMsg(make([]byte, 64), 0, nil)
			}
			w.eng.Run()
			for _, ch := range []*Channel{cli, srv} {
				l, n := ch.lk, r.depth+ctrlReserve
				per := r.per
				if per == 0 {
					per = n
				}
				check(t, ch.ctx, l.pool, per, n, 120+r.small)
				// A completion left over from an earlier pool on this (recycled)
				// QPN carries that pool's id: it reposts nothing.
				l.repost(l.pool.id(0) - 1<<32)
				if l.qp.RecvQueueLen() != n {
					t.Errorf("%d receives posted on the QP, want every one of %d slots, once", l.qp.RecvQueueLen(), n)
				}
				if _, ok := ch.ctx.srqPool.wr(l.pool.id(0)); ok || ch.ctx.srqPool != nil {
					t.Error("a context without an SRQ has an SRQ pool")
				}
			}
		})
	}
}

// TestPoolFreedAfterQP is the ownership rule of link.release, enforced: a
// link degrades with its QP still in RTS — the path doctor escalates, or a
// keepalive dies — while the peer, which has not heard, keeps sending. (a) At
// every engine event, a pool that left its link did so with the QP it was
// posted on RESET or destroyed, and the SRQ's pool never moves. (b) Memory
// taken from the cache right after the degrade is never written by a late
// frame. The parent's dropPool freed the pool at the degrade: the first 48
// AllocNow below were its buffers, still posted.
func TestPoolFreedAfterQP(t *testing.T) {
	faults := []struct {
		name    string
		degrade func(l *link)
	}{
		{"path-doctor-escalation", func(l *link) {
			// One sick scan short of escalation, with no rotations left.
			l.doctor.sickScans = pdSickScansToEscalate - 1
			l.doctor.rotateOrEscalate(l.c, l.qp.QPN, l.c.eng.Now(), l.fail)
		}},
		{"keepalive-death", func(l *link) { l.keepaliveDead(l.c.eng.Now()) }},
	}
	for _, shared := range []bool{false, true} {
		for _, f := range faults {
			kind := map[bool]string{false: "exclusive", true: "srq"}[shared]
			t.Run(kind+"/"+f.name, func(t *testing.T) {
				w := newRecoverWorld(t, 2, func(_ int, cfg *Config) {
					cfg.RecoverDialTimeout = 10 * sim.Millisecond
					cfg.PathRehashLimit = 0
					if shared {
						cfg.QPsPerPeer, cfg.MockEnabled = 1, false
					}
				})
				var cli, srv *Channel
				if shared {
					cs, ss := openMuxed(t, w, 0, 1, 6002, 1)
					cli, srv = cs[0], ss[0]
				} else {
					cli, srv = w.connect(t, 0, 1, 5000)
				}
				late := 0
				cli.OnMessage(func(m *Msg) { late++ })
				frame := bytes.Repeat([]byte{0x77}, 512)
				var tick func()
				tick = func() {
					if !srv.Closed() {
						srv.SendMsg(frame, 0, nil)
						w.eng.AfterBg(2*sim.Microsecond, tick)
					}
				}
				tick()
				w.eng.RunFor(sim.Millisecond)

				// The ledger of (a): which QP each link's pool is posted on.
				type posting struct {
					qp  *rnic.QP
					nic *rnic.NIC
				}
				ledger := map[*recvPool]posting{}
				type srqHeld struct {
					pool  *recvPool
					bytes int64
				}
				var srqWas [2]srqHeld
				audit := func(first bool) {
					for i, c := range w.ctxs {
						cur := map[*recvPool]bool{}
						for _, l := range c.allLinks() {
							if l.pool != nil {
								cur[l.pool] = true
								ledger[l.pool] = posting{l.qp, w.nics[i]}
							}
						}
						for p, on := range ledger {
							if on.nic != w.nics[i] || cur[p] {
								continue
							}
							if live := on.nic.QP(on.qp.QPN) == on.qp; live && on.qp.State != rnic.QPReset {
								t.Fatalf("t=%v node %d: a pool left its link with qpn=%d in %v — freed under a QP that can still receive",
									w.eng.Now(), i, on.qp.QPN, on.qp.State)
							}
							delete(ledger, p)
						}
						held, _, _ := heldBySRQ(c)
						if s := (srqHeld{c.srqPool, held}); first {
							srqWas[i] = s
						} else if s != srqWas[i] || c.Mem.InUseBytes < held {
							t.Fatalf("t=%v node %d: the SRQ pool moved: %+v, was %+v (InUseBytes %d)", w.eng.Now(), i, s, srqWas[i], c.Mem.InUseBytes)
						}
					}
				}
				audit(true)
				if shared == (len(ledger) != 0) {
					t.Fatalf("%d link pools in a world with shared=%v", len(ledger), shared)
				}

				l, c := cli.lk, w.ctxs[0]
				before := late
				f.degrade(l)
				if l.state != linkDegraded || l.qp.State != rnic.QPRTS {
					t.Fatalf("link state %d, QP %v after the fault; want degraded on a QP still in RTS", l.state, l.qp.State)
				}
				// (b) Take what the cache will give without growing, and paint it.
				var mine []Buffer
				paint := bytes.Repeat([]byte{0xA5}, c.recvBufSize())
				for len(mine) < 64 {
					b, ok := c.Mem.AllocNow(c.recvBufSize())
					if !ok {
						break
					}
					copy(b.Bytes(), paint)
					mine = append(mine, b)
				}
				if len(mine) < 48 {
					t.Fatalf("only %d buffers to be had: the test cannot cover a freed pool", len(mine))
				}
				audit(false)
				// Until both ends have run 2 ms on the replacement (100 ms at most).
				for end := w.eng.Now().Add(100 * sim.Millisecond); w.eng.Now() < end && w.eng.Step(); {
					audit(false)
					if w.ctxs[1].Stats.Recoveries == 1 && end > w.eng.Now().Add(2*sim.Millisecond) {
						end = w.eng.Now().Add(2 * sim.Millisecond)
					}
				}
				if late == before {
					t.Fatal("no frame arrived after the degrade — the test is vacuous")
				}
				if cli.Health() != HealthHealthy || srv.Health() != HealthHealthy || cli.lk.qp == nil || w.ctxs[0].Stats.Recoveries != 1 {
					t.Fatalf("cli %v srv %v, %d recoveries; want one adoption", cli.Health(), srv.Health(), w.ctxs[0].Stats.Recoveries)
				}
				for k, b := range mine {
					if !bytes.Equal(b.Bytes(), paint[:b.Len]) {
						t.Fatalf("buffer %d, taken from the cache right after the degrade, was written: % x…", k, b.Bytes()[:24])
					}
					c.Mem.Free(b)
				}
				cli.Close()
				srv.Close()
				w.eng.RunFor(20 * sim.Millisecond)
				audit(false)
				for i, c := range w.ctxs {
					checkMemAtRest(t, i, c)
				}
			})
		}
	}
}

// TestDegradeFreeListsRepeat: the same seed twice leaves the memory cache's
// free lists identical after a degrade with allocations waiting behind a grow.
// (dropPool freed a map's values — in map order — with the waiters served
// between frees; release frees a pool's blocks in block order.)
func TestDegradeFreeListsRepeat(t *testing.T) {
	run := func() string {
		w := newRecoverWorld(t, 2, func(_ int, cfg *Config) {
			cfg.MRSize = 1 << 20
			cfg.RecoverDialTimeout = 10 * sim.Millisecond
		})
		cli, srv := w.connect(t, 0, 1, 5000)
		echoServer(srv)
		c := w.ctxs[0]
		// Fill the one region, so that the next allocations wait for a grow…
		var hold []Buffer
		for {
			b, ok := c.Mem.AllocNow(64 << 10)
			if !ok {
				break
			}
			hold = append(hold, b)
		}
		var got []Buffer
		for k := 0; k < 6; k++ {
			c.Mem.Alloc(8<<10, func(b Buffer, err error) { got = append(got, b) })
		}
		if c.Mem.waiters.Len() != 6 || !c.Mem.growing {
			t.Fatalf("%d waiters, growing=%v; want 6 behind a grow", c.Mem.waiters.Len(), c.Mem.growing)
		}
		// …and degrade with it in flight; the replacement's pool queues behind.
		cli.fail(ErrPeerDead)
		w.eng.RunFor(100 * sim.Millisecond)
		if cli.Health() != HealthHealthy || len(got) != 6 {
			t.Fatalf("health %v, %d of 6 waiters served", cli.Health(), len(got))
		}
		for _, b := range append(hold[len(hold)/2:], got[0], got[2], got[4]) {
			c.Mem.Free(b)
		}
		var s string
		for i, r := range c.Mem.regions {
			s += fmt.Sprintf("region %d inUse=%d free=%v\n", i, r.inUse, r.free)
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("free lists differ between two runs of one seed:\n%s\nvs\n%s", a, b)
	}
}
