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
package rnic

import (
	"errors"
	"fmt"
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

// mrPage is the unit in which an MR's storage is made: a page is backed the
// first time a Slice lands on it.
const mrPage = 4096

// MR is a registered memory region. Its bytes are real storage so tests can
// verify end-to-end data integrity; Base is the region's virtual address in
// the node's flat address space.
//
// The storage is made on first touch, in mrPage pages: registering reserves
// address space and a key, not host memory, and untouched bytes read as
// zero, as a fresh registration holds. Pages a Slice has touched together
// form one run, one allocation; each of them is a slice of its run that
// reaches to the run's end. A Slice whose range touches an untouched page or
// spans runs lays those pages out anew as one run, together with every run
// that overlaps them, and copies the bytes already written. A slice handed
// out before such a re-lay still reads the bytes written through it, but
// writes through it after the re-lay are not seen by later slices. Only an
// inbound message being assembled (a SEND into its posted buffer, a READ into
// its destination) holds a slice across events, and that slice becomes its
// completion's Data.
type MR struct {
	Base uint64
	Len  int
	RKey uint32
	LKey uint32
	Mode RegMode

	pages [][]byte // one per mrPage; nil until touched
	mem   *Memory
}

// Contains reports whether [addr, addr+n) falls inside the region.
func (mr *MR) Contains(addr uint64, n int) bool {
	return addr >= mr.Base && addr+uint64(n) <= mr.Base+uint64(mr.Len)
}

// Slice returns the backing bytes for [addr, addr+n); the range must be
// inside the region. Its capacity ends with the range: a completion's Data
// aliases registered memory, and an append to it must reallocate, not run on
// into the neighbouring buffer.
func (mr *MR) Slice(addr uint64, n int) []byte {
	if n == 0 {
		return []byte{} // not nil: a nil Data means nothing was carried
	}
	off := addr - mr.Base
	in, p := int(off%mrPage), mr.pages[off/mrPage]
	if in+n > cap(p) {
		p = mr.back(int(off), n)
	}
	return p[in : in+n : in+n]
}

// back lays the pages under [off, off+n) out as one run, merged with every
// run that overlaps them, and returns the page off falls in.
func (mr *MR) back(off, n int) []byte {
	lo, hi := off/mrPage, (off+n-1)/mrPage
	// A page belongs to the run before it when the page before reaches one
	// page further.
	for lo > 0 && mr.pages[lo] != nil && cap(mr.pages[lo-1]) == cap(mr.pages[lo])+mrPage {
		lo--
	}
	end := min((hi+1)*mrPage, mr.Len)
	if p := mr.pages[hi]; p != nil {
		end = max(end, hi*mrPage+cap(p))
	}
	run := make([]byte, end-lo*mrPage)
	for j := lo; j*mrPage < end; j++ {
		at := run[(j-lo)*mrPage:]
		if p := mr.pages[j]; p != nil {
			copy(at, p[:min(mrPage, len(p))])
		}
		mr.pages[j] = at
	}
	return mr.pages[off/mrPage]
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
		Base:  m.nextAddr,
		Len:   size,
		RKey:  m.nextKey,
		LKey:  m.nextKey,
		Mode:  mode,
		pages: make([][]byte, (size+mrPage-1)/mrPage),
		mem:   m,
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

// Regions reports the number of live MRs.
func (m *Memory) Regions() int { return len(m.byKey) }

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
