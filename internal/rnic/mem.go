// Package rnic models an RDMA-capable NIC (RNIC) faithfully enough to
// reproduce the protocol-visible behaviours the X-RDMA paper builds on:
// queue pairs with the RC state machine, MTU segmentation, hardware
// acks with go-back-N retransmission, RNR NAKs, memory regions with rkey
// protection, a DCQCN rate limiter per QP, a QP-context SRAM cache, and a
// transmit engine that processes work requests one at a time — the
// head-of-line blocking that motivates X-RDMA's fragmentation.
//
// Bytes move the way they do on hardware, by DMA between registered buffers:
// a READ responder snapshots the source range when it accepts the request
// (what a one-sided READ observes is fixed then) into a recycled staging
// buffer, and the requester lands each response segment, as a receiver each
// SEND fragment, directly in the registered memory the work request names;
// the completion's Data is that memory. A size-only READ (SendWR.SizeOnly),
// like a SEND with nil Data, moves lengths alone: the responder checks the
// rkey and bounds and snapshots nothing, the segments carry no bytes, nothing
// lands, and the completion's Data is nil. Model deltas toward hardware that
// follow: a READ's destination and a posted receive buffer fill segment by
// segment, in order, as packets are accepted — their contents are partial
// until the completion, not untouched until it; and a go-back-N re-service of
// a READ continues the accepted prefix from a fresh snapshot of the source.
// A work request that names no memory gets a private buffer (tests, the verbs
// baseline): nothing in the model requires registered memory to carry bytes.
// A region's host storage is exactly the bytes that have landed in it (MR);
// the 4 KiB page the model pins and charges for (RegCost) is a cost, not the
// unit of storage.
package rnic

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"xrdma/internal/sim"
)

// RegMode selects how an MR's backing pages are organised. The paper's
// §VII-F compares non-continuous, physically continuous, and hugepage
// registrations.
type RegMode uint8

const (
	// RegNonContinuous is ordinary anonymous pages (Alibaba's choice).
	RegNonContinuous RegMode = iota
	// RegContinuous is physically continuous memory: slightly faster
	// address translation, but allocation is expensive and fragments.
	RegContinuous
	// RegHugePage uses 2 MB pages: fewer translations, middling cost.
	RegHugePage
)

func (m RegMode) String() string {
	switch m {
	case RegContinuous:
		return "continuous"
	case RegHugePage:
		return "hugepage"
	default:
		return "non-continuous"
	}
}

// MR is a registered memory region. Its bytes are real storage so tests can
// verify end-to-end data integrity; Base is the region's virtual address in
// the node's flat address space.
//
// The storage is made on first touch, byte for byte: registering reserves
// address space and a key, not the region's bytes, and untouched bytes read as
// zero, as a fresh registration holds. The bytes a Slice has touched form
// disjoint runs, each one allocation, sorted by offset. A Slice whose range is
// not inside one run lays it out anew as one run, together with every run it
// overlaps, and copies the bytes already written. A slice handed out before
// such a re-lay still reads the bytes written through it, but writes through
// it after the re-lay are not seen by later slices. Only an inbound message
// being assembled (a SEND into its posted buffer, a READ into its destination)
// holds a slice across events, and that slice becomes its completion's Data.
type MR struct {
	Base uint64
	Len  int
	RKey uint32
	LKey uint32
	Mode RegMode

	runs []mrRun // disjoint, by offset
	last int     // the run the last Slice hit: a FIFO receive cycle lands in it or the next
	mem  *Memory
}

// mrRun is one allocation of an MR's storage: the bytes from off on.
type mrRun struct {
	off int // from Base
	buf []byte
}

// cut is the run's bytes for [off, off+n), n > 0, or nil when they are not
// all in it.
func (r mrRun) cut(off, n int) []byte {
	if in := off - r.off; in >= 0 && in+n <= len(r.buf) {
		return r.buf[in : in+n : in+n]
	}
	return nil
}

// Contains reports whether [addr, addr+n) falls inside the region.
func (mr *MR) Contains(addr uint64, n int) bool {
	return addr >= mr.Base && addr+uint64(n) <= mr.Base+uint64(mr.Len)
}

// Made is the host storage the region has made: the bytes Slices touched.
func (mr *MR) Made() (n int) {
	for _, r := range mr.runs {
		n += len(r.buf)
	}
	return n
}

// Slice returns the backing bytes for [addr, addr+n); the range must be
// inside the region. Its capacity ends with the range: a completion's Data
// aliases registered memory, and an append to it must reallocate, not run on
// into the neighbouring buffer.
func (mr *MR) Slice(addr uint64, n int) []byte {
	if n == 0 {
		return []byte{} // not nil: a nil Data means nothing was carried
	}
	off := int(addr - mr.Base)
	for i := mr.last; i < min(mr.last+2, len(mr.runs)); i++ {
		if s := mr.runs[i].cut(off, n); s != nil {
			mr.last = i
			return s
		}
	}
	// i is the first run ending after off: the only one that can hold it.
	i := sort.Search(len(mr.runs), func(i int) bool { return mr.runs[i].off+len(mr.runs[i].buf) > off })
	if i < len(mr.runs) {
		if s := mr.runs[i].cut(off, n); s != nil {
			mr.last = i
			return s
		}
	}
	return mr.back(i, off, n)
}

// back lays [off, off+n) out as one run, merged with every run that overlaps
// it from runs[i] on, and returns the range's bytes.
func (mr *MR) back(i, off, n int) []byte {
	j := i
	for j < len(mr.runs) && mr.runs[j].off < off+n {
		j++
	}
	start, end := off, off+n
	if i < j {
		start, end = min(start, mr.runs[i].off), max(end, mr.runs[j-1].off+len(mr.runs[j-1].buf))
	}
	buf := make([]byte, end-start)
	for _, r := range mr.runs[i:j] {
		copy(buf[r.off-start:], r.buf)
	}
	mr.runs, mr.last = slices.Replace(mr.runs, i, j, mrRun{start, buf}), i
	return buf[off-start : off-start+n : off-start+n]
}

// Memory is one node's registered-memory registry plus a virtual address
// allocator. Address space is never reused, so use-after-deregister is
// always caught.
type Memory struct {
	nextAddr uint64
	nextKey  uint32
	byKey    map[uint32]*MR
	sorted   []*MR // by Base, for address lookups

	// RegisteredBytes tracks current total registered memory — the
	// resource-footprint metric of §III Issue 1.
	RegisteredBytes int64
	// PeakRegisteredBytes is the high-water mark.
	PeakRegisteredBytes int64
	// Registrations counts ibv_reg_mr-equivalent calls.
	Registrations int64
}

// NewMemory returns an empty registry. The address space deliberately
// starts high (near "stack space", §VI-C memory-cache isolation).
func NewMemory() *Memory {
	return &Memory{nextAddr: 0x7f00_0000_0000, nextKey: 1, byKey: make(map[uint32]*MR)}
}

// ErrMRAccess is returned for rkey mismatches or out-of-bounds remote
// access; on the wire it becomes a remote-access-error NAK that breaks
// the QP.
var ErrMRAccess = errors.New("rnic: remote access violation")

// Register pins size bytes and returns the MR. Registration cost is a
// driver-time property; callers that care (the memory cache) charge
// RegCost through the simulation clock.
func (m *Memory) Register(size int, mode RegMode) *MR {
	if size < 0 {
		panic("rnic: negative MR size")
	}
	mr := &MR{
		Base: m.nextAddr,
		Len:  size,
		RKey: m.nextKey,
		LKey: m.nextKey,
		Mode: mode,
		mem:  m,
	}
	// Guard gap between regions so off-by-one overruns never land in a
	// neighbouring MR.
	m.nextAddr += uint64(size) + 4096
	m.nextKey++
	m.byKey[mr.RKey] = mr
	idx := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].Base > mr.Base })
	m.sorted = append(m.sorted, nil)
	copy(m.sorted[idx+1:], m.sorted[idx:])
	m.sorted[idx] = mr
	m.Registrations++
	m.RegisteredBytes += int64(size)
	if m.RegisteredBytes > m.PeakRegisteredBytes {
		m.PeakRegisteredBytes = m.RegisteredBytes
	}
	return mr
}

// Deregister removes the MR; later remote access to its range fails.
func (m *Memory) Deregister(mr *MR) {
	if _, ok := m.byKey[mr.RKey]; !ok {
		return
	}
	delete(m.byKey, mr.RKey)
	for i, r := range m.sorted {
		if r == mr {
			m.sorted = append(m.sorted[:i], m.sorted[i+1:]...)
			break
		}
	}
	m.RegisteredBytes -= int64(mr.Len)
}

// InvalidateAll drops every MR at once (node reboot): all later lookups
// fail with ErrMRAccess, exactly as if each region had been deregistered.
func (m *Memory) InvalidateAll() {
	for _, mr := range m.byKey {
		m.RegisteredBytes -= int64(mr.Len)
	}
	m.byKey = make(map[uint32]*MR)
	m.sorted = nil
}

// Lookup validates a remote access of n bytes at addr under rkey.
func (m *Memory) Lookup(rkey uint32, addr uint64, n int) (*MR, error) {
	mr, ok := m.byKey[rkey]
	if !ok {
		return nil, fmt.Errorf("%w: unknown rkey %d", ErrMRAccess, rkey)
	}
	if !mr.Contains(addr, n) {
		return nil, fmt.Errorf("%w: [%#x,+%d) outside MR [%#x,+%d)", ErrMRAccess, addr, n, mr.Base, mr.Len)
	}
	return mr, nil
}

// FindLocal resolves a local address to its MR (no key check: lkey use); ok
// is false when no MR covers [addr, addr+n). The miss is an outcome the
// receive path counts, not an error it reports, and allocates nothing.
func (m *Memory) FindLocal(addr uint64, n int) (mr *MR, ok bool) {
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].Base+uint64(m.sorted[i].Len) > addr })
	if i < len(m.sorted) && m.sorted[i].Contains(addr, n) {
		return m.sorted[i], true
	}
	return nil, false
}

// RegCost models the driver-side latency of registering size bytes with a
// given mode: page pinning scales with page count; continuous memory pays
// an allocation search; hugepages amortise pinning.
//
// LITE (SOSP'17) reports performance collapse past ~1000 small MRs, which
// motivated X-RDMA's 4 MB regions; the per-region fixed cost here encodes
// that trade-off.
func RegCost(size int, mode RegMode) sim.Duration {
	const fixed = 30 * sim.Microsecond // syscall + key setup
	pages := int64(size+4095) / 4096
	switch mode {
	case RegContinuous:
		// Compaction/search grows with size; cheap translation later.
		return fixed + sim.Duration(pages)*900*sim.Nanosecond
	case RegHugePage:
		huge := int64(size+(2<<20)-1) / (2 << 20)
		return fixed + sim.Duration(huge)*12*sim.Microsecond
	default:
		return fixed + sim.Duration(pages)*600*sim.Nanosecond
	}
}
