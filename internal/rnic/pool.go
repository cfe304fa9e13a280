package rnic

import (
	"math/bits"

	"xrdma/internal/sim"
)

// Per-engine free-lists for the RNIC fast path: protocol headers, transmit
// jobs, message-assembly state and READ staging buffers. Keying the pools to
// the simulation engine (via Engine.Aux) keeps every NIC on one engine
// sharing a pool — a header allocated by the sender's NIC is reclaimed by the
// receiver's — while parallel experiments on separate engines stay fully
// isolated with no global registry or locking.

type poolKey struct{}

type pools struct {
	hdrs  []*hdr
	jobs  []*txJob
	asms  []*assembly
	reads []*readState

	// READ staging buffers: the free ones by size class (log2 of the
	// capacity), how many those are, and how many are out — snapshotted into
	// and not yet home (stageBuf.refs).
	stages    [bits.UintSize][]*stageBuf
	stageFree int
	staged    int
}

// stageBuf is a READ responder's snapshot of the source range, taken when the
// request is accepted: the response segments alias it until they land. refs
// counts what still reads it — the response job plus every header carrying a
// slice of it. Every header comes home: delivered ones through HandlePacket,
// the ones the fabric drops through dropped.
type stageBuf struct {
	buf  []byte
	refs int
}

// poolsFor returns the engine's pool set, creating it on first use.
func poolsFor(eng *sim.Engine) *pools {
	if v := eng.Aux(poolKey{}); v != nil {
		return v.(*pools)
	}
	pl := &pools{}
	eng.SetAux(poolKey{}, pl)
	return pl
}

// hdr returns a zeroed header.
func (pl *pools) hdr() *hdr {
	if k := len(pl.hdrs) - 1; k >= 0 {
		h := pl.hdrs[k]
		pl.hdrs[k] = nil
		pl.hdrs = pl.hdrs[:k]
		return h
	}
	return &hdr{}
}

// putHdr reclaims a header once its packet has been fully processed.
func (pl *pools) putHdr(h *hdr) {
	if h.stage != nil {
		pl.unstage(h.stage)
	}
	*h = hdr{}
	pl.hdrs = append(pl.hdrs, h)
}

// dropped takes the payload of a packet that will never be delivered — one
// the fabric discarded (it is the fabric's OnDrop hook: tail drop, dead link
// or switch, no route, brownout loss) or one that never reached the wire
// (NIC.freePacket): its header comes home like a delivered one, releasing its
// share of a staging buffer. Foreign payloads (CM, tcpnet) are not ours to
// pool.
func (pl *pools) dropped(payload any) {
	if h, ok := payload.(*hdr); ok {
		pl.putHdr(h)
	}
}

// job returns a zeroed transmit job.
func (pl *pools) job() *txJob {
	if k := len(pl.jobs) - 1; k >= 0 {
		j := pl.jobs[k]
		pl.jobs[k] = nil
		pl.jobs = pl.jobs[:k]
		j.pooled = false
		return j
	}
	return &txJob{}
}

// putJob reclaims a job. Idempotent: the engine's ownership hand-offs
// (queue, current) make double-release the dangerous failure mode, so a
// pooled job is never pooled twice.
func (pl *pools) putJob(j *txJob) {
	if j.pooled {
		return
	}
	if j.wr != nil {
		j.wr.jobs--
	}
	if j.stage != nil {
		pl.unstage(j.stage)
	}
	*j = txJob{pooled: true}
	pl.jobs = append(pl.jobs, j)
}

// asm returns a zeroed assembly.
func (pl *pools) asm() *assembly {
	if k := len(pl.asms) - 1; k >= 0 {
		a := pl.asms[k]
		pl.asms[k] = nil
		pl.asms = pl.asms[:k]
		return a
	}
	return &assembly{}
}

// putAsm reclaims assembly state after the message is delivered. The
// gathered data slice has moved into the receive CQE by then; zeroing the
// struct only drops this reference, not the buffer.
func (pl *pools) putAsm(a *assembly) {
	*a = assembly{}
	pl.asms = append(pl.asms, a)
}

// readState returns a zeroed requester-side READ cursor.
func (pl *pools) readState() *readState {
	if k := len(pl.reads) - 1; k >= 0 {
		rs := pl.reads[k]
		pl.reads[k] = nil
		pl.reads = pl.reads[:k]
		return rs
	}
	return &readState{}
}

// putReadState reclaims a READ cursor once its WR completed or flushed.
// Any gathered data has moved into the WR/CQE by then.
func (pl *pools) putReadState(rs *readState) {
	*rs = readState{}
	pl.reads = append(pl.reads, rs)
}

// stage returns an n-byte staging buffer (n > 0) holding one reference, the
// response job's. Its contents are whatever the last READ left: the caller
// overwrites all n bytes.
func (pl *pools) stage(n int) *stageBuf {
	pl.staged++
	class := bits.Len(uint(n - 1))
	free := &pl.stages[class]
	if k := len(*free) - 1; k >= 0 {
		s := (*free)[k]
		(*free)[k] = nil
		*free = (*free)[:k]
		pl.stageFree--
		s.buf, s.refs = s.buf[:n], 1
		return s
	}
	return &stageBuf{buf: make([]byte, n, 1<<class), refs: 1}
}

// unstage drops one reference; the last one home frees the buffer for the next
// snapshot. When no buffer is out any more, nothing is being served on this
// engine and the free lists shrink to the one just returned: a standing pool
// would be read as live heap at quiescence, and under incast a buffer is out
// for as long as its packets queue in the fabric, so neither a byte cap nor
// "while this NIC has responses queued" keeps the buffers a burst needs
// (DESIGN §13.1 has the three measured alternatives).
func (pl *pools) unstage(s *stageBuf) {
	if s.refs--; s.refs > 0 {
		return
	}
	if pl.staged--; pl.staged == 0 && pl.stageFree > 0 {
		// Truncated, not re-made: the lists keep their capacity.
		for i := range pl.stages {
			clear(pl.stages[i])
			pl.stages[i] = pl.stages[i][:0]
		}
		pl.stageFree = 0
	}
	free := &pl.stages[bits.Len(uint(cap(s.buf)-1))]
	*free = append(*free, s)
	pl.stageFree++
}
