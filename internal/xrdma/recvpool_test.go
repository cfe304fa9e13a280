package xrdma

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// landedFunc is a poolOwner made of a function.
type landedFunc func(p *recvPool, lo, hi int)

func (f landedFunc) poolLanded(p *recvPool, lo, hi int) { f(p, lo, hi) }

// checkSlab holds a pool to the slab arithmetic: n strides are
// ⌈n / per⌉ cache blocks of which those covering the first filled
// slots are in place, every such slot lies inside its block at a stride multiple
// from the base, no two overlap, a slot past them names nothing, a WR id is its
// pool's tag over its slot and names nothing in any other pool, and the cache's
// counters read what the slicing says (the pool is all that is out of it);
// run names a block's WRs as wr does.
func checkSlab(t *testing.T, c *Context, p *recvPool, per, n, filled, stride int) {
	t.Helper()
	per = min(per, n)
	landed := (filled + per - 1) / per
	if p == nil || p.n != n || p.stride != stride || stride != c.recvBufSize() {
		t.Fatalf("pool %+v, want %d slots of %d (recvBufSize %d)", p, n, stride, c.recvBufSize())
	}
	if p.per != per || len(p.blocks) != (n+per-1)/per || p.pending != len(p.blocks)-landed {
		t.Fatalf("%d blocks of %d strides, %d to land; want %d of %d, %d",
			len(p.blocks), p.per, p.pending, (n+per-1)/per, per, (n+per-1)/per-landed)
	}
	var inUse, rounded int64
	for i, b := range p.blocks {
		if i >= landed {
			if b.Valid() {
				t.Fatalf("block %d is in place with %d slots filled", i, filled)
			}
			continue
		}
		want := min(per, n-i*per) * stride
		if !b.Valid() || b.Len != want {
			t.Fatalf("block %d: valid=%v len=%d, want %d", i, b.Valid(), b.Len, want)
		}
		inUse, rounded = inUse+int64(b.Len), rounded+int64(c.Mem.blockFor(b.Len))
	}
	if c.Mem.InUseBytes != int64(filled*stride) || inUse != int64(filled*stride) || c.Mem.PoolInUseBytes != rounded {
		t.Errorf("InUseBytes=%d (blocks %d) PoolInUseBytes=%d, want %d and %d", c.Mem.InUseBytes, inUse, c.Mem.PoolInUseBytes, filled*stride, rounded)
	}
	if got, want := c.Mem.Allocs-c.Mem.Frees, int64(landed); got != want {
		t.Errorf("%d blocks out of the cache, want %d", got, want)
	}
	// A second pool of the same shape out of the same cache: the slot
	// numbers repeat, the ids do not.
	var other *recvPool
	c.Mem.carve(new(recvPool), n, stride, per > 1, landedFunc(func(q *recvPool, _, _ int) { other = q }))
	c.eng.Run() // the cache may have to grow for it
	wantPending := 0
	if per > 1 { // packed: only its first block was asked for
		wantPending = len(p.blocks) - 1
	}
	if other == nil || other.pending != wantPending || other.tag == p.tag {
		t.Fatalf("second pool %+v beside %+v", other, p)
	}
	seen := make(map[uint64]int, filled)
	for slot := 0; slot < n; slot++ {
		id := p.id(slot)
		wr, ok := p.wr(id)
		if slot >= filled {
			if ok {
				t.Fatalf("slot %d answers with %d filled", slot, filled)
			}
			continue
		}
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
	// run names each landed block's WRs as one run: slot after slot, each at
	// ID+1 and Addr+Len, as wr names them.
	for k := range p.blocks {
		want := 0 // none unless landed
		if k < landed {
			want = min(per, n-k*per)
		}
		first, m := p.run(k)
		if m != want {
			t.Fatalf("block %d is a run of %d, want %d (%d blocks landed)", k, m, want, landed)
		}
		for i := 0; i < m; i++ {
			wr, _ := p.wr(p.id(k*per + i))
			if got := (rnic.RecvWR{ID: first.ID + uint64(i), Addr: first.Addr + uint64(i*first.Len), Len: first.Len}); got != wr {
				t.Fatalf("block %d's run names %+v at its %d-th WR, wr %+v", k, got, i, wr)
			}
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

// TestRecvSlab is checkSlab over the pools the middleware carves. The SRQ rows
// fill a shared receive queue by the fill rule (srqFill: blocks of the cache's
// floor, 62 strides at the defaults; the rows whose SRQSize fits one block hold
// all of it; 994 and 995 sit either side of the old 4 MiB block's edge; tenants
// widen the stride by the tenant extension); the last rows
// are the pool a link acquires — one block, or a block per buffer once the
// buffers are too large for a region to hold the pool.
func TestRecvSlab(t *testing.T) {
	for _, size := range []int{4, 16, 62, 63, 994, 995, 4096} {
		for _, tenants := range []bool{false, true} {
			t.Run(fmt.Sprintf("srq-%d/tenants=%v", size, tenants), func(t *testing.T) {
				w := newWorld(t, 2, func(_ int, cfg *Config) {
					cfg.QPsPerPeer, cfg.SRQSize = 1, size
					if tenants {
						cfg.Tenants = []TenantConfig{{Name: "a"}}
					}
				})
				stride := map[bool]int{false: 4216, true: 4224}[tenants]
				for _, c := range w.ctxs {
					if c.srqPool != nil || c.Mem.InUseBytes != 0 {
						t.Fatal("an idle context already holds SRQ buffers")
					}
				}
				cli, srv := openMuxed(t, w, 0, 1, 6000, 2)
				per, filled := (256<<10)/stride, size
				if size > per {
					filled = srqFill(w.ctxs[0])
				}
				for i, c := range w.ctxs {
					if c.srq.Len() != filled || c.Stats.SRQPosted != int64(filled) { // (srq.Posted is already past it: the CHAN_OPEN exchange recycled slots)
						t.Fatalf("node %d: %d slots posted (Stats say %d), want %d", i, c.srq.Len(), c.Stats.SRQPosted, filled)
					}
					checkSlab(t, c, c.srqPool, per, size, filled, stride)
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
				if resps == 0 || c.srq.Len() != filled || c.srq.Posted <= int64(filled) || c.Mem.Allocs != allocs || c.Stats.SRQGrows != 0 {
					t.Fatalf("%d responses; SRQ %d deep (%d ever posted), %d allocations since the fill; want a full queue recycled in place",
						resps, c.srq.Len(), c.srq.Posted, c.Mem.Allocs-allocs)
				}
				checkSlab(t, c, c.srqPool, per, size, filled, stride)
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
				checkSlab(t, ch.ctx, l.pool, cmp.Or(r.per, n), n, n, 120+r.small)
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

// TestLinkPoolIsOneRun holds a link's standing pool to one entry of its QP's
// receive queue: the pool's slots go on as one run, and over rounds of echoes
// (each consumed buffer reposted in order) the queue holds at most two, what
// is left of the oldest and the reposts after it. The queue's storage is room
// for those two runs, the same at a window four times deeper (RQCap 344, not
// 152): it grows with runs, not with the depth.
func TestLinkPoolIsOneRun(t *testing.T) {
	var rooms []int
	for _, depth := range []int{32, 128} {
		w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.WindowDepth = depth })
		cli, srv := w.connect(t, 0, 1, 5000)
		echoServer(srv)
		n, room := depth+ctrlReserve, 0
		for _, ch := range []*Channel{cli, srv} {
			qp := ch.lk.qp
			if runs, _ := qp.RecvRuns(); runs != 1 || qp.RecvQueueLen() != n || qp.RQCap != ch.lk.depth {
				t.Fatalf("depth %d: %d WRs posted in %d runs on a QP of RQCap %d, want %d in one (RQCap %d)",
					depth, qp.RecvQueueLen(), runs, qp.RQCap, n, ch.lk.depth)
			}
		}
		for k := 0; k < 3*n; k++ {
			cli.SendMsg(make([]byte, 64), 0, nil)
			w.eng.Run()
			for _, ch := range []*Channel{cli, srv} {
				runs, r := ch.lk.qp.RecvRuns()
				if room = max(room, r); runs > 2 || ch.lk.qp.RecvQueueLen() != n {
					t.Fatalf("depth %d, echo %d: %d WRs posted in %d runs, want %d in at most two", depth, k, ch.lk.qp.RecvQueueLen(), runs, n)
				}
			}
		}
		rooms = append(rooms, room)
	}
	if rooms[0] != rooms[1] || rooms[0] > 2 {
		t.Fatalf("receive queue storage of %v runs at windows 32 and 128, want the same, at most two", rooms)
	}
}

// TestPoolFreedAfterQP is the ownership rule of link.release, enforced: a
// link degrades with its QP still in RTS — the path doctor escalates, or a
// keepalive dies — while the peer, which has not heard, keeps sending. (a) At
// every engine event, a pool that left its link did so with the QP it was
// posted on RESET or destroyed, and the SRQ's pool never moves. (b) Memory
// taken from the cache right after the degrade is never written by a late
// frame. The parent's dropPool freed the pool at the degrade: the first
// tryAlloc below were its buffers, still posted.
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
						held, _, _, _ := poolHeld(c, c.srqPool)
						if shared && held != int64(srqFill(c)*c.recvBufSize()) {
							t.Fatalf("t=%v node %d: the SRQ holds %d bytes, the fill rule says %d slots", w.eng.Now(), i, held, srqFill(c))
						}
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
				// (b) Take what the cache will give without growing, and paint it:
				// at least as many buffers as a pool's block holds, lowest first.
				var mine []Buffer
				paint := bytes.Repeat([]byte{0xA5}, c.recvBufSize())
				for len(mine) < 64 {
					b, ok := c.Mem.tryAlloc(nil, c.recvBufSize())
					if !ok {
						break
					}
					copy(b.Bytes(), paint)
					mine = append(mine, b)
				}
				if len(mine) < c.Mem.floor()/c.Mem.blockFor(c.recvBufSize()) {
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
				pool := map[bool]int{false: 0, true: 1}[shared] // the shared QP outlives its rider
				w.checkAtRest(t, pool, pool)
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
			b, ok := c.Mem.tryAlloc(nil, 64<<10)
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

// TestSRQGrowsOnLimit drives the fill rule of sharedRQ past its first block,
// which no other world does: a receiver whose thread is held (InjectWork) polls
// nothing, so every arrival keeps its buffer out of a default-depth queue while
// the sender ramps, one message per 2 µs — slower than 497 (half a block) per
// 644 µs (one region's registration; a 1024-deep window makes the cache's floor,
// hence a block, a whole 4 MiB region). The posted depth follows block by block,
// each asked for by the consume that left fewer than half a block posted, up to
// SRQSize and no further, with no RNR NAK on the way; past the cap an arrival is
// RNR-NAKed, as ever, and retried, not lost: every message is delivered once.
// The cache's ledger reads what the slicing says, and closing the contexts — in
// the second run with a block's registration in flight, in the third with a
// NIC restart between that registration and its landing, so that the block
// lands for a pool the restart dropped — leaves nothing behind.
func TestSRQGrowsOnLimit(t *testing.T) {
	const (
		chans   = 8
		over    = 64 // messages past the cap
		spacing = 2 * sim.Microsecond
	)
	for _, mode := range []string{"close-mid-grow=false", "close-mid-grow=true", "restart-mid-grow"} {
		t.Run(mode, func(t *testing.T) {
			midGrow := mode != "close-mid-grow=false"
			w := newWorld(t, 2, func(_ int, cfg *Config) {
				cfg.QPsPerPeer, cfg.WindowDepth = 1, 1024 // the sender's windows never fill
			})
			clis, srvs := openMuxed(t, w, 0, 1, 6010, chans)
			c, nic := w.ctxs[1], w.nics[1]
			stride, depth := c.recvBufSize(), c.cfg.SRQSize
			per := (4 << 20) / stride
			got := make(map[uint64]int, depth+over)
			for _, s := range srvs {
				s.OnMessage(func(m *Msg) { got[binary.LittleEndian.Uint64(m.Data)]++ })
			}
			if c.srq.Len() != per || srqFill(c) != per || c.Stats.SRQGrows != 0 {
				t.Fatalf("%d slots posted before the ramp (fill rule %d, %d grows), want the first block's %d", c.srq.Len(), srqFill(c), c.Stats.SRQGrows, per)
			}

			c.InjectWork(sim.Duration(depth+over)*spacing + 100*sim.Microsecond)
			for i := 0; i < depth+over; i++ {
				w.eng.AfterBg(sim.Duration(i)*spacing, func() {
					buf := make([]byte, 64)
					binary.LittleEndian.PutUint64(buf, uint64(i))
					if err := clis[i%chans].SendMsg(buf, 0, nil); err != nil && !clis[i%chans].Closed() {
						t.Errorf("send %d: %v", i, err)
					}
				})
			}
			depths, grows := []int{per}, int64(0)
			for nic.Counters.RNRNakSent == 0 && w.eng.Step() {
				if c.Stats.SRQGrows != grows {
					if grows++; c.Stats.SRQGrows != grows || c.srq.Len() != per/srqLimitDiv-1 {
						t.Fatalf("grow %d with %d slots posted, want the consume that left %d", c.Stats.SRQGrows, c.srq.Len(), per/srqLimitDiv-1)
					}
					if midGrow {
						break
					}
				}
				if d := int(c.Stats.SRQPosted); d != depths[len(depths)-1] {
					depths = append(depths, d)
				}
			}
			if mode == "restart-mid-grow" {
				nic.Crash()
				nic.Restart()
				c.OnNICRestart()
			}
			if !midGrow {
				// The first RNR NAK: the cap is posted and all of it is out.
				if want := []int{per, 2 * per, 3 * per, 4 * per, depth}; !slices.Equal(depths, want) || c.Stats.SRQGrows != 4 || c.srq.Len() != 0 {
					t.Fatalf("first RNR NAK at depths %v, %d grows, %d slots left; want %v, 4, 0", depths, c.Stats.SRQGrows, c.srq.Len(), want)
				}
				w.eng.Run()
				for i := 0; i < depth+over; i++ {
					if got[uint64(i)] != 1 {
						t.Fatalf("message %d delivered %d times", i, got[uint64(i)])
					}
				}
				if len(got) != depth+over || c.Stats.ChannelsBroken+c.Stats.Degraded+w.ctxs[0].Stats.ChannelsBroken+w.ctxs[0].Stats.Degraded != 0 {
					t.Fatalf("%d distinct messages of %d; a link broke", len(got), depth+over)
				}
				if c.srq.Len() != depth || srqFill(c) != depth || c.Stats.SRQGrows != 4 || snapshot(w.eng)[c.track+".srq_posted"] != int64(depth) {
					t.Fatalf("%d slots posted at rest (fill rule %d, %d grows), want the cap's %d and no grow past it", c.srq.Len(), srqFill(c), c.Stats.SRQGrows, depth)
				}
				checkSlab(t, c, c.srqPool, per, depth, depth, stride)
			}
			for _, c := range w.ctxs {
				c.Close()
			}
			w.eng.Run()
			w.checkAtRest(t, 0, 0)
		})
	}
}
