package xrdma

import (
	"errors"
	"fmt"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// One-sided dataplane (§IV-C "read replace write", generalised): an MR
// window is a dedicated registered region a context deliberately exposes
// to a peer, granted and revoked over the existing ctrl-frame plane. The
// peer then reads it with RDMA READ (ReadRemote) or updates it with RDMA
// WRITE+immediate (WriteRemote) — no send window slot, no receiver wakeup
// on reads, and reliability entirely inherited from the RNIC's shared
// go-back-N/RTO machinery. Both verbs need a healthy RDMA path: the TCP Mock
// fallback (§VI-C) carries messages, nothing that pretends to be an RNIC, so on
// a degraded, recovering or mocked channel they answer ErrNoPath at once and
// the caller's RPC fallback (Storm: any failed one-sided op becomes an RPC)
// rides the messages the fallback does carry.
//
// Ownership invariants:
//   - A Window owns a dedicated MR; Revoke deregisters it, so any
//     in-flight or later remote access fails with a remote-access NAK at
//     the RNIC — revocation is enforced by the memory system, not by
//     trusting the peer to honour the WIN_REVOKE frame.
//   - RemoteWindow values are advisory bookkeeping: the rkey is the only
//     capability, and the responder's Memory.Lookup bounds check is the
//     only authority.

// Errors surfaced by one-sided operations.
var (
	ErrRemoteAccess = errors.New("xrdma: remote access violation")
	ErrNoPath       = errors.New("xrdma: one-sided op needs a healthy RDMA path")
	// errWriteImmShared refuses WriteRemote on a muxed channel: the 32-bit
	// immediate is the only thing the receiver's completion carries besides
	// the QPN, so it cannot name which rider of a shared QP to wake.
	errWriteImmShared = errors.New("xrdma: WRITE+imm needs an exclusive QP (a shared QP's immediate cannot name the channel)")
)

// Window is a locally exposed MR window.
type Window struct {
	ID  uint64
	Len int

	ctx     *Context
	mr      *rnic.MR
	revoked bool
}

// RemoteWindow is a peer-granted window: where ReadRemote/WriteRemote may
// aim. Received via OnWindow when the peer sends a WIN_GRANT frame.
type RemoteWindow struct {
	ID   uint64
	Addr uint64
	RKey uint32
	Len  int
}

// ExposeWindow registers a dedicated MR of the given size and hands the
// window back once the (slow, RegCost-modelled) registration completes.
// The window is not visible to any peer until GrantWindow announces it.
func (c *Context) ExposeWindow(size int, done func(*Window, error)) {
	c.pd.RegMR(size, c.cfg.MemMode, func(mr *rnic.MR) {
		if mr == nil {
			done(nil, errors.New("xrdma: window registration failed"))
			return
		}
		c.winSeq++
		done(&Window{ID: c.winSeq, Len: size, ctx: c, mr: mr}, nil)
	})
}

// Base returns the window's registered base address.
func (w *Window) Base() uint64 { return w.mr.Base }

// RKey returns the window's remote key.
func (w *Window) RKey() uint32 { return w.mr.RKey }

// Bytes exposes the window's backing storage (the owner's view).
func (w *Window) Bytes() []byte { return w.mr.Slice(w.mr.Base, w.Len) }

// Revoked reports whether the window has been withdrawn.
func (w *Window) Revoked() bool { return w.revoked }

// Revoke withdraws the window: the dedicated MR is deregistered, so any
// later (or in-flight) remote access draws a remote-access NAK from the
// RNIC. Idempotent. Peers that were granted the window should also be
// told via RevokeWindow so they stop trying.
func (w *Window) Revoke() {
	if w.revoked {
		return
	}
	w.revoked = true
	w.ctx.pd.DeregMR(w.mr)
}

// GrantWindow announces a window to this channel's peer over the ctrl
// plane. The peer observes it via OnWindow. A peer that did not advertise
// the one-sided capability in negotiation never sees a WIN_GRANT — the
// grant is withheld (a ver.mismatch record whose B is the lacking capability
// bits, negated), since a v1 build would treat the frame as noise.
func (ch *Channel) GrantWindow(w *Window) {
	if c := ch.ctx; !ch.peerCap(capOneSided) {
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatVerMismatch, int32(c.Node()), ch.QPN(), int64(ch.Peer), -int64(capOneSided))
		return
	}
	ch.sendCtrlHdr(&wireHdr{
		Kind: kindWinGrant, MsgID: w.ID,
		Addr: w.mr.Base, RKey: w.mr.RKey, Size: uint32(w.Len),
	})
}

// RevokeWindow tells the peer the window is gone and enforces the
// revocation locally (deregistering the MR). The frame is advisory; the
// deregistration is the guarantee.
func (ch *Channel) RevokeWindow(w *Window) {
	ch.sendCtrlHdr(&wireHdr{Kind: kindWinRevoke, MsgID: w.ID})
	w.Revoke()
}

// OnWindow installs the observer for peer-granted windows.
func (ch *Channel) OnWindow(fn func(RemoteWindow)) { ch.onWindow = fn }

// OnWindowRevoke installs the observer for peer-revoked windows (called
// with the window id).
func (ch *Channel) OnWindowRevoke(fn func(uint64)) { ch.onWinRevoke = fn }

// OnWriteImm installs the handler for inbound one-sided WRITE+imm: the
// data is already placed in the target window when the handler runs; imm,
// the landing address and the length are all it gets — by design, the
// whole point of the immediate is a wakeup without a message body.
func (ch *Channel) OnWriteImm(fn func(imm uint32, addr uint64, n int)) { ch.onWriteImm = fn }

// PeerWindow returns a previously granted remote window by id.
func (ch *Channel) PeerWindow(id uint64) (RemoteWindow, bool) {
	rw, ok := ch.remoteWins[id]
	return rw, ok
}

// ReadRemote pulls size bytes from the peer window at offset off using
// fragmented RDMA READ (flow-controlled like the rendezvous path). cb
// receives the data — valid only during the callback — or an error; a
// remote-access NAK surfaces as ErrRemoteAccess wrapped in the error and
// breaks the channel, exactly as the hardware would break the QP. Without a
// healthy RDMA path cb hears ErrNoPath synchronously: nothing goes on any wire.
func (ch *Channel) ReadRemote(win RemoteWindow, off uint64, size int, cb func([]byte, error)) {
	c := ch.ctx
	if ch.closed {
		cb(nil, ErrChannelClosed)
		return
	}
	if ch.attach != attachDone {
		ch.onAttach(func() { ch.ReadRemote(win, off, size, cb) }, func(err error) { cb(nil, err) })
		ch.requestAttach()
		return
	}
	ch.Counters.Reads++
	if ch.health != HealthHealthy {
		// Speculative op with no path: fail fast so the caller's RPC
		// fallback engages instead of queueing behind recovery.
		cb(nil, ErrNoPath)
		return
	}
	op := c.newRec(recFetch, ch)
	op.readCB, op.msgID, op.enqAt, op.size = cb, c.nextMsgID(), c.eng.Now(), size
	op.wr.RAddr, op.wr.RKey = win.Addr+off, win.RKey
	ch.fetch(op)
}

// fetch lands op's bytes in a local buffer (a zero-byte probe, an RTT
// measurement, needs none and no rkey check) with fragmented READs. op names
// the target (wr.RAddr/RKey: a fetch posts only its fragments) and the
// consumer (readCB or msg), whom Context.fetched tells the outcome, whatever.
func (ch *Channel) fetch(op *msgRec) {
	c := ch.ctx
	op.holds |= holdOp
	if op.size == 0 {
		c.flow.fetchRemote(op)
	} else if buf, ok := c.Mem.tryAlloc(nil, op.size); ok {
		ch.fetchInto(op, buf, nil)
	} else { // the cache must grow first
		c.Mem.Alloc(op.size, func(buf Buffer, err error) { ch.fetchInto(op, buf, err) })
	}
}

func (ch *Channel) fetchInto(op *msgRec, buf Buffer, err error) {
	c := ch.ctx
	switch {
	case err != nil:
		op.err = err
	case ch.closed || ch.health != HealthHealthy:
		c.Mem.Free(buf)
		op.err = ErrNoPath
	default:
		if op.staged = buf; op.msg != nil {
			op.enqAt = c.eng.Now() // a pull's read.fetch span starts with its buffer
		}
		c.flow.fetchRemote(op)
		return
	}
	c.fetched(op)
}

// readDone completes one RDMA-path ReadRemote: stats, blame, callback,
// buffer reclamation, and channel failure on a broken QP.
func (ch *Channel) readDone(id uint64, start sim.Time, size int, buf Buffer, st rnic.Status, err error, cb func([]byte, error)) {
	c := ch.ctx
	if err != nil {
		cb(nil, err)
		return
	}
	if st != rnic.StatusOK {
		if buf.Valid() {
			c.Mem.Free(buf)
		}
		err := fmt.Errorf("xrdma: remote read failed: %v: %w", st, ErrRemoteAccess)
		if st != rnic.StatusRemoteAccessErr {
			err = fmt.Errorf("xrdma: remote read failed: %v", st)
		} else {
			ch.Counters.RemoteAccessErrs++
		}
		cb(nil, err)
		if !ch.closed && st != rnic.StatusFlushed {
			// The QP broke under the read (access NAK, retry exhaustion):
			// hand the channel to the health machinery like any send fault.
			ch.fail(err)
		}
		return
	}
	ch.Counters.ReadBytes += int64(size)
	ch.noteOneSided(telemetry.StageReadFetch, id, start)
	if buf.Valid() {
		cb(buf.Bytes()[:size], nil)
		c.Mem.Free(buf)
	} else {
		cb(nil, nil)
	}
}

// WriteRemote places data into the peer window at offset off with RDMA
// WRITE+immediate; the peer's OnWriteImm handler fires with imm once the
// data is placed. cb(nil) fires when the local completion (hardware ack)
// confirms remote placement; without a healthy RDMA path it hears ErrNoPath
// synchronously, as ReadRemote's does. WRITE+imm needs an exclusive QP: on a
// muxed channel it fails before anything is posted (ReadRemote, which wakes
// nobody, works on either).
func (ch *Channel) WriteRemote(win RemoteWindow, off uint64, data []byte, imm uint32, cb func(error)) {
	c := ch.ctx
	if ch.closed {
		cb(ErrChannelClosed)
		return
	}
	if ch.cid != 0 {
		cb(errWriteImmShared)
		return
	}
	ch.Counters.Writes++
	if ch.health != HealthHealthy {
		cb(ErrNoPath)
		return
	}
	rec := c.newRec(recWrite, ch)
	rec.done, rec.msgID, rec.enqAt, rec.size = cb, c.nextMsgID(), c.eng.Now(), len(data)
	rec.lk, rec.qp = ch.lk, ch.lk.qp
	rec.wr = rnic.SendWR{
		Op: rnic.OpWriteImm, Len: len(data), Data: data,
		RAddr: win.Addr + off, RKey: win.RKey, Imm: imm,
	}
	c.flow.post(rec)
	ch.lk.lastComm = c.eng.Now()
}

// wrote hears a WriteRemote's completion.
func (ch *Channel) wrote(cqe *rnic.CQE, id uint64, start sim.Time, n int, cb func(error)) {
	if cqe.Status != rnic.StatusOK {
		err := fmt.Errorf("xrdma: remote write failed: %v", cqe.Status)
		if cqe.Status == rnic.StatusRemoteAccessErr {
			ch.Counters.RemoteAccessErrs++
			err = fmt.Errorf("xrdma: remote write failed: %v: %w", cqe.Status, ErrRemoteAccess)
		}
		cb(err)
		if cqe.Status != rnic.StatusFlushed && ch.lk.current(cqe) {
			ch.lk.fail(err)
		}
		return
	}
	ch.Counters.WriteBytes += int64(n)
	ch.noteOneSided(telemetry.StageWriteFlush, id, start)
	cb(nil)
}

// noteOneSided attributes one completed one-sided op to its blame stage:
// a timeline span always (when tracing is on), plus a blame record when
// the op falls in the causal-trace sample — the same sampling policy the
// two-sided plane uses.
func (ch *Channel) noteOneSided(stage telemetry.Stage, id uint64, start sim.Time) {
	c := ch.ctx
	d := c.eng.Now().Sub(start)
	c.tel.Trace.Complete(stage.String(), c.track, start, d, int64(id))
	if c.cfg.ReqRspMode && ch.blameSampled(id) {
		rec := telemetry.BlameRec{
			MsgID: id, Node: int32(c.Node()), QPN: ch.QPN(),
			At: start, RTT: d,
		}
		rec.Dur[stage] = d
		c.tel.Blame.Observe(&rec)
	}
}

// --- inbound (ctrl-plane) ----------------------------------------------------

// handleWinGrant records a peer-granted window.
func (ch *Channel) handleWinGrant(h *wireHdr) {
	rw := RemoteWindow{ID: h.MsgID, Addr: h.Addr, RKey: h.RKey, Len: int(h.Size)}
	if ch.remoteWins == nil {
		ch.remoteWins = make(map[uint64]RemoteWindow)
	}
	ch.remoteWins[h.MsgID] = rw
	if ch.onWindow != nil {
		ch.onWindow(rw)
	}
}

// handleWinRevoke forgets a peer-revoked window.
func (ch *Channel) handleWinRevoke(h *wireHdr) {
	delete(ch.remoteWins, h.MsgID)
	if ch.onWinRevoke != nil {
		ch.onWinRevoke(h.MsgID)
	}
}
