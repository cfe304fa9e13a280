package xrdma

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// MemCache manages per-context RDMA-enabled memory as a few MRs (§IV-E —
// LITE showed thousands of small MRs collapse). Within a region a binary
// buddy allocator hands out power-of-two blocks (512 B minimum): split on
// alloc, merge with the buddy on free, so a drained region always recovers
// its full-capacity block and external fragmentation is bounded. When
// capacity runs out the cache registers one more MR sized to demand (grow),
// MRSize (4 MB by default) at most; idle MRSize regions are given back.
//
// Tenancy: AllocT charges the allocation's block-rounded size against the
// tenant's MemBudget and rejects overruns synchronously with
// ErrTenantBudget (never a silent stall), starting a shed episode.
//
// With MemIsolation on (§VI-C), each allocation is framed by canary bytes
// so out-of-bound writes are detectable via CheckIntegrity.
type MemCache struct {
	ctx      *Context
	mrSize   int
	mode     rnic.RegMode
	capBytes int // buddy-managed capacity of an MRSize region: pow2 floor of mrSize

	regions []*memRegion
	growing bool
	gen     int    // bumped by Reset so in-flight grows land in the right era
	carved  uint64 // receive pools ever carved: the next one's tag
	waiters sim.Queue[memWaiter]

	// Counters (Fig. 11c plots Occupy vs In-use against bandwidth).
	// InUseBytes counts requested bytes (plus canaries in isolation mode);
	// PoolInUseBytes counts the block-rounded footprint the tenant budgets
	// run on — the difference is internal fragmentation.
	InUseBytes     int64
	PoolInUseBytes int64
	Allocs, Frees  int64
	Grows, Shrinks int64
	Corruptions    int64
}

const canary = 0x5C
const canaryLen = 8

// memBuddyMin is the smallest buddy block handed out.
const memBuddyMin = 512

type memRegion struct {
	mr *rnic.MR
	// free[o] holds the sorted byte offsets of free blocks of order o
	// (block size memBuddyMin<<o). Allocation takes the lowest offset of
	// the smallest sufficient order — fully deterministic.
	free     [][]int
	top      int // order of the region's full-capacity block
	inUse    int // block-rounded bytes in use
	lastUsed sim.Time
	dead     bool // region lost to a NIC restart; frees become no-ops
}

// memWaiter is one allocation: a buffer for cb, or block i of pool.
type memWaiter struct {
	size   int
	tenant *Tenant
	cb     func(Buffer, error)
	pool   *recvPool
	block  int
}

// serve hands the waiter its buffer — or why there is none. A pool's block
// lands in place, invalid when the allocation failed (its slots stay
// unposted), and the pool's owner hears which slots it holds.
func (w memWaiter) serve(b Buffer, err error) {
	p, i := w.pool, w.block
	if p == nil {
		w.cb(b, err)
		return
	}
	p.blocks[i] = b
	p.pending--
	p.owner.poolLanded(p, i*p.per, min((i+1)*p.per, p.n))
}

// Buffer is an allocation from the cache: registered memory usable as an
// RDMA target.
type Buffer struct {
	MR   *rnic.MR
	Addr uint64
	Len  int

	region   *memRegion
	off      int // block byte offset within the region
	totalLen int // buddy block size (>= Len + canaries)
	tenant   *Tenant
}

// Valid reports whether the buffer is a real allocation.
func (b Buffer) Valid() bool { return b.MR != nil }

// Bytes exposes the backing storage.
func (b Buffer) Bytes() []byte { return b.MR.Slice(b.Addr, b.Len) }

// ErrTenantBudget rejects an allocation that would push its tenant past
// its configured MemBudget.
var ErrTenantBudget = errors.New("xrdma: tenant memory budget exceeded")

func newMemCache(ctx *Context, mrSize int, mode rnic.RegMode) *MemCache {
	capBytes := min(mrSize, memBuddyMin<<max(bits.Len(uint(mrSize/memBuddyMin))-1, 0)) // mrSize itself below the minimum block
	return &MemCache{ctx: ctx, mrSize: mrSize, mode: mode, capBytes: capBytes}
}

// OccupiedBytes is the total registered capacity.
func (m *MemCache) OccupiedBytes() (n int64) {
	for _, r := range m.regions {
		n += int64(r.mr.Len)
	}
	return n
}

// floor is the block one link's receive pool takes (256 KiB at the defaults):
// what a region is sized from, and the SRQ's block.
func (m *MemCache) floor() int {
	return min(m.blockFor((m.ctx.cfg.WindowDepth+ctrlReserve)*m.ctx.recvBufSize()), m.capBytes)
}

func (m *MemCache) pad() int {
	if m.ctx.cfg.MemIsolation {
		return 2 * canaryLen
	}
	return 0
}

// blockFor is the buddy block size backing a request of this many bytes.
func (m *MemCache) blockFor(size int) int {
	return memBuddyMin << bits.Len(uint((size+m.pad()-1)/memBuddyMin))
}

// blockOrder is o for a block of memBuddyMin<<o bytes.
func blockOrder(block int) int { return bits.Len(uint(block/memBuddyMin)) - 1 }

// Alloc returns a buffer of the given size, growing the cache (and thus
// completing asynchronously) when needed. size must fit an MRSize region.
func (m *MemCache) Alloc(size int, cb func(Buffer, error)) { m.AllocT(nil, size, cb) }

// AllocT is the tenant-charged variant: the block-rounded size counts
// against t's MemBudget, and overruns fail synchronously with
// ErrTenantBudget so the caller can degrade instead of stalling.
func (m *MemCache) AllocT(t *Tenant, size int, cb func(Buffer, error)) {
	m.alloc(memWaiter{size: size, tenant: t, cb: cb})
}

// alloc serves w at once, or queues it behind a grow.
func (m *MemCache) alloc(w memWaiter) {
	if b, ok, err := m.allocSync(w.tenant, w.size); ok || err != nil {
		w.serve(b, err)
		return
	}
	m.waiters.Push(w)
	m.grow()
}

// allocSync is the synchronous arm: a buffer (ok), or why there will be none
// (err; a tenant's reject is noted), or neither — the cache has to grow first.
func (m *MemCache) allocSync(t *Tenant, size int) (b Buffer, ok bool, err error) {
	if err = m.refuse(t, size, false); err == nil {
		b, ok = m.tryAlloc(t, size)
	}
	return b, ok, err
}

// refuse is why no buffer of size bytes can be had for t: past an MR, or past
// t's MemBudget — on top of what t holds now, or, ever, the block alone. A
// budget reject is noted, which starts a shed episode.
func (m *MemCache) refuse(t *Tenant, size int, ever bool) error {
	if size+m.pad() > m.capBytes {
		return fmt.Errorf("xrdma: allocation %d exceeds MR size %d", size, m.mrSize)
	}
	if t == nil || t.cfg.MemBudget <= 0 {
		return nil
	}
	block := int64(m.blockFor(size))
	if block <= t.cfg.MemBudget && (ever || t.memUsed+block <= t.cfg.MemBudget) {
		return nil
	}
	t.noteBudgetReject(block)
	return ErrTenantBudget
}

func (m *MemCache) tryAlloc(t *Tenant, size int) (Buffer, bool) {
	block := m.blockFor(size) // past capBytes, no region's top order
	for _, r := range m.regions {
		off, ok := r.takeBlock(blockOrder(block))
		if !ok {
			continue
		}
		r.inUse += block
		r.lastUsed = m.ctx.eng.Now()
		m.InUseBytes += int64(size + m.pad())
		m.PoolInUseBytes += int64(block)
		m.Allocs++
		if t != nil {
			t.memUsed += int64(block)
		}
		b := Buffer{MR: r.mr, Addr: r.mr.Base + uint64(off+m.pad()/2), region: r, off: off, totalLen: block, tenant: t, Len: size}
		if m.ctx.cfg.MemIsolation {
			canaries(b, false)
		}
		return b, true
	}
	return Buffer{}, false
}

// takeBlock pops the lowest free block of the smallest sufficient order,
// splitting larger blocks down and pushing the upper halves back.
func (r *memRegion) takeBlock(order int) (int, bool) {
	o := order
	for o <= r.top && len(r.free[o]) == 0 {
		o++
	}
	if o > r.top {
		return 0, false
	}
	off := r.free[o][0]
	r.popFront(o)
	for o > order {
		o--
		r.pushSorted(o, off+memBuddyMin<<o)
	}
	return off, true
}

// popFront removes the first (lowest) offset while keeping the slice's
// capacity, so steady-state allocation never touches the heap.
func (r *memRegion) popFront(o int) {
	lst := r.free[o]
	copy(lst, lst[1:])
	r.free[o] = lst[:len(lst)-1]
}

func (r *memRegion) pushSorted(o, off int) {
	lst := r.free[o]
	i := sort.SearchInts(lst, off)
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = off
	r.free[o] = lst
}

// Free returns a buffer to the cache, checking canaries in isolation mode
// and merging the block with its buddy chain. Buffers whose region died in
// a NIC restart are silently dropped — their storage is gone with the MR.
func (m *MemCache) Free(b Buffer) {
	if !b.Valid() || b.region == nil || b.region.dead {
		return
	}
	if c := m.ctx; c.cfg.MemIsolation && !canaries(b, true) {
		m.Corruptions++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatIntegrity, int32(c.Node()), 0, integrityCanary, int64(b.Addr))
	}
	r := b.region
	block := b.totalLen
	r.inUse -= block
	r.lastUsed = m.ctx.eng.Now()
	m.InUseBytes -= int64(b.Len + m.pad())
	m.PoolInUseBytes -= int64(block)
	m.Frees++
	if b.tenant != nil {
		b.tenant.memUsed -= int64(block)
	}
	r.mergeFree(b.off, blockOrder(block))
	m.serveWaiters()
}

// mergeFree inserts the block and coalesces with its buddy while the buddy
// is free, restoring the region's full-capacity block when it drains.
func (r *memRegion) mergeFree(off, order int) {
	for order < r.top {
		size := memBuddyMin << order
		buddy := off ^ size
		lst := r.free[order]
		i := sort.SearchInts(lst, buddy)
		if i >= len(lst) || lst[i] != buddy {
			break
		}
		copy(lst[i:], lst[i+1:])
		r.free[order] = lst[:len(lst)-1]
		if buddy < off {
			off = buddy
		}
		order++
	}
	r.pushSorted(order, off)
}

// canaries paints b's two canaries, or with check reports whether both still
// hold. Each is sliced alone, so the bytes between them are never made for it.
func canaries(b Buffer, check bool) bool {
	for _, at := range [2]int{0, canaryLen + b.Len} {
		c := b.MR.Slice(b.MR.Base+uint64(b.off+at), canaryLen)
		for i := range c {
			if check && c[i] != canary {
				return false
			}
			c[i] = canary
		}
	}
	return true
}

// CheckIntegrity verifies canaries of a live buffer (debug hook).
func (m *MemCache) CheckIntegrity(b Buffer) bool {
	return !m.ctx.cfg.MemIsolation || canaries(b, true)
}

// recvPool is a receive queue's standing memory — a link's, or the SRQ's: n
// strides, per to a cache block (only the last may hold fewer), so the buddy
// rounds once per block, not per buffer, and canaries frame the block. A receive
// WR id is the pool's tag over the slot: a consumed buffer is reposted by
// arithmetic, and an id that outlived its pool (QPNs recycle) names no slot of
// a newer one.
type recvPool struct {
	blocks         []Buffer
	one            [1]Buffer // backs blocks when one block holds the pool
	tag            uint64    // bits 32..63 of its WR ids: the carve's ordinal in this cache
	pending        int       // blocks still to land
	gen            int       // the cache's era at the carve: a Reset since drops the pool
	stride, per, n int
	owner          poolOwner
}

// poolOwner hears each block of a pool land: the context the SRQ's, an
// establishment a link's.
type poolOwner interface {
	poolLanded(p *recvPool, lo, hi int)
}

// carve allocates a pool of n strides: one block, or — when no region can hold
// it — a block per stride (a link's, in E14's 256 KiB regions only; DESIGN §14.4
// has why it is not packed yet), or, packed, blocks of as many strides as floor
// takes, the first now and each next when its owner asks (fill): the SRQ.
// The pool is carved into p, which it returns; owner hears each block land
// (memWaiter.serve), possibly before carve returns.
func (m *MemCache) carve(p *recvPool, n, stride int, packed bool, owner poolOwner) *recvPool {
	per := min(n, max((m.floor()-m.pad())/stride, 1)) // a link's whole pool, unless no region holds it
	if per < n && !packed {
		per = 1
	}
	m.carved++
	*p = recvPool{tag: m.carved << 32, gen: m.gen, stride: stride, per: per, n: n, pending: (n + per - 1) / per, owner: owner}
	if p.blocks = p.one[:]; p.pending > 1 {
		p.blocks = make([]Buffer, p.pending)
	}
	for i := 0; i < len(p.blocks) && (i == 0 || !packed); i++ {
		m.fill(p, i)
	}
	return p
}

// fill asks the cache for block i of the pool.
func (m *MemCache) fill(p *recvPool, i int) {
	m.alloc(memWaiter{size: (min((i+1)*p.per, p.n) - i*p.per) * p.stride, pool: p, block: i})
}

// id is the receive WR id of slot.
func (p *recvPool) id(slot int) uint64 { return p.tag | uint64(slot) }

// wr is the receive WR that id names; ok is false for no pool, another pool's
// id, a slot out of range, or one whose block never landed.
func (p *recvPool) wr(id uint64) (wr rnic.RecvWR, ok bool) {
	slot := int(uint32(id))
	if p == nil || id != p.id(slot) || slot >= p.n {
		return wr, false
	}
	b, off := p.blocks[0], slot // one block holds the pool: no divide
	if p.per < p.n {
		b, off = p.blocks[slot/p.per], slot%p.per
	}
	return rnic.RecvWR{ID: id, Addr: b.Addr + uint64(off*p.stride), Len: p.stride}, b.Valid()
}

// run is block k's receive WRs as one run (rnic.QP.PostRecvRun): the first
// slot's WR and the block's slot count, 0 while the block has not landed.
func (p *recvPool) run(k int) (first rnic.RecvWR, n int) {
	if first, ok := p.wr(p.id(k * p.per)); ok {
		return first, min(p.per, p.n-k*p.per)
	}
	return first, 0
}

// Reset abandons every region after the NIC lost its registered memory
// (machine reboot). Buffers handed out earlier become no-ops on Free;
// pending waiters are served from freshly registered regions.
func (m *MemCache) Reset() {
	for _, r := range m.regions {
		r.dead = true
	}
	m.regions = nil
	m.InUseBytes = 0
	m.PoolInUseBytes = 0
	for _, t := range m.ctx.tenants {
		t.memUsed = 0
	}
	m.gen++
	m.growing = false
	if m.waiters.Len() > 0 {
		m.grow()
	}
}

// grow registers one more MR asynchronously: the smallest power of two at least
// twice the larger of floor and the first waiter's block, and at least the
// capacity so far — 512 KiB first at the defaults, then capacity doubles per
// grow, so regions stay few — or MRSize once that reaches capBytes. Waiters are
// served when it lands.
func (m *MemCache) grow() {
	if m.growing {
		return
	}
	m.growing = true
	m.Grows++
	gen := m.gen
	need := max(2*max(m.floor(), m.blockFor(m.waiters.Items()[0].size)), int(m.OccupiedBytes()))
	size := min(1<<bits.Len(uint(need-1)), m.capBytes) // the power of two at or above need
	top := max(blockOrder(size), 0)
	if size == m.capBytes {
		size = m.mrSize
	}
	m.ctx.pd.RegMR(size, m.mode, func(mr *rnic.MR) {
		if gen != m.gen {
			// The cache was reset while this registration was in flight:
			// the MR belongs to the pre-restart NIC and is already dead.
			return
		}
		m.growing = false
		r := &memRegion{mr: mr, free: make([][]int, top+1), top: top, lastUsed: m.ctx.eng.Now()}
		r.free[top] = append(r.free[top], 0)
		m.regions = append(m.regions, r)
		m.serveWaiters()
		if m.waiters.Len() > 0 {
			m.grow()
		}
	})
}

func (m *MemCache) serveWaiters() {
	for m.waiters.Len() > 0 {
		w := m.waiters.Items()[0]
		// Re-check the budget at serve time: the tenant may have crossed it
		// while this waiter sat behind a grow.
		if err := m.refuse(w.tenant, w.size, false); err != nil {
			m.waiters.Pop()
			w.serve(Buffer{}, err)
			continue
		}
		b, ok := m.tryAlloc(w.tenant, w.size)
		if !ok {
			return
		}
		m.waiters.Pop()
		w.serve(b, nil)
	}
}

// reclaim deregisters the fully-free MRSize regions idle for longer than
// memShrinkIdle, keeping at least one region warm: the context's periodic
// housekeeping. The ramp below MRSize stays, at most one MRSize in all.
func (m *MemCache) reclaim() {
	now := m.ctx.eng.Now()
	kept := m.regions[:0]
	freed := 0
	for _, r := range m.regions {
		if r.inUse == 0 && r.mr.Len == m.mrSize && now.Sub(r.lastUsed) > memShrinkIdle && len(m.regions)-freed > 1 {
			m.ctx.pd.DeregMR(r.mr)
			r.dead = true
			m.Shrinks++
			freed++
			continue
		}
		kept = append(kept, r)
	}
	m.regions = kept
}
