package rnic

import "xrdma/internal/sim"

// Per-engine free-lists for the RNIC fast path: protocol headers, transmit
// jobs and message-assembly state. Keying the pools to the simulation
// engine (via Engine.Aux) keeps every NIC on one engine sharing a pool —
// a header allocated by the sender's NIC is reclaimed by the receiver's —
// while parallel experiments on separate engines stay fully isolated with
// no global registry or locking.

type poolKey struct{}

type pools struct {
	hdrs  []*hdr
	jobs  []*txJob
	asms  []*assembly
	reads []*readState
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
	*h = hdr{}
	pl.hdrs = append(pl.hdrs, h)
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
// (queue, current, in-flight closure) make double-release the dangerous
// failure mode, so a pooled job is never pooled twice.
func (pl *pools) putJob(j *txJob) {
	if j.pooled {
		return
	}
	if j.wr != nil {
		j.wr.jobs--
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
