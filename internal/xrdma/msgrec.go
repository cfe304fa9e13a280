package xrdma

import (
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// msgRec is the one per-message record of the send side: queue entry,
// response waiter, replay copy, frame buffer, work request and completion
// context of a message, control frame or one-sided op, recycled through the
// context's free list, so the steady-state path allocates nothing. Whatever
// references a record holds it (the hold* bits); the last hold to drop
// recycles it. DESIGN §9.4 names each owner and the event at which it lets go.
type msgRec struct {
	kind  recKind
	holds uint8
	gen   uint32 // incarnation: a late async callback sees it lost its record
	ch    *Channel
	next  *msgRec    // the next record on the channel's send queue
	ring  [2]*msgRec // the waiters issued before and after it (Channel.issued)

	// The transmission. From post to CQE (holdNIC) wr and the frame inside buf
	// are the RNIC's: RC retransmission re-reads both. buf is frameHeadroom
	// bytes, then the owned payload; emit encodes the header flush against it.
	wr       rnic.SendWR
	buf      []byte
	lk       *link
	qp       *rnic.QP
	sched    *sqSched // the DRR arbiter that posted it, and its generation then
	schedGen uint64

	// The message (a windowed recFrame). msgID, size, enqAt and staged double as a
	// one-sided op's id, length, start time and landing buffer.
	mkind                         msgKind
	msgID                         uint64
	size                          int
	hasData                       bool // payload bytes are carried (else size-only)
	staged                        Buffer
	staging, ready, oneWay, large bool
	enqAt                         sim.Time
	echo                          *respEcho // blame mirror riding a response

	// The response waiter (holdWaiter) of a SendMsg with a callback.
	cb     func(*Msg, error)
	sentAt sim.Time
	blame  *reqBlame // nil unless the request was blame-sampled

	// Completion consumers of the other kinds.
	done      func(error)         // recWrite: WriteRemote
	readCB    func([]byte, error) // recFetch: ReadRemote
	msg       *Msg                // recFetch: the rendezvous message being pulled
	parent    *msgRec             // recFrag → its recFetch
	remaining int                 // recFetch: fragments outstanding
	failed    rnic.Status         // recFetch: first fragment failure
	err       error               // recFetch: it never started (no memory, no path)
}

type recKind uint8

const (
	recFree  recKind = iota // on the free list
	recFrame                // a wire frame: a windowed message or a window-exempt control frame
	recProbe                // a keepalive zero-byte write
	recWrite                // WriteRemote
	recFetch                // a fragmented READ; posts only its fragments
	recFrag                 // one READ fragment of a recFetch
)

const (
	holdSendQ  uint8 = 1 << iota // queued on the channel, unsent (Channel.sendQ)
	holdWindow                   // sent, awaiting the peer's ack (txWindow.sent)
	holdPostQ                    // behind the DRR arbiter or the READ limiter
	holdNIC                      // posted: a CQE is owed (Context.posted)
	holdWaiter                   // a response is awaited (Channel.pending)
	holdOp                       // a fetch whose fragments are outstanding
)

// Link addresses next: a record queues on a sim.List (Channel.sendQ).
func (rec *msgRec) Link() **msgRec { return &rec.next }

// RingLink addresses ring: a request awaits its response on Channel.issued.
func (rec *msgRec) RingLink() *[2]*msgRec { return &rec.ring }

// frameHeadroom is the largest header: every extension present.
const frameHeadroom = hdrSize + traceExtSize + blameExtSize + tenantExtSize

// newRec takes a record off the free list (Context.recs), which grows on demand.
func (c *Context) newRec(kind recKind, ch *Channel) *msgRec {
	rec := c.recs.Take(func() *msgRec { return new(msgRec) })
	rec.kind, rec.ch = kind, ch
	return rec
}

// drop releases the holds h; the last one out recycles the record — unless a
// transmit job still references its WR (rnic.SendWR.Queued: a retransmission
// scheduled before the ack landed) and will yet read it: the collector's then.
func (c *Context) drop(rec *msgRec, h uint8) {
	if rec.kind == recFree || rec.holds&h != h {
		panic("xrdma: message record released twice")
	}
	if rec.holds &^= h; rec.holds != 0 {
		return
	}
	if rec.wr.Queued() {
		c.recs.Forfeit()
		return
	}
	buf := rec.buf[:0]
	if cap(buf) > frameHeadroom+c.cfg.SmallMsgSize {
		buf = nil // a rendezvous-sized payload is not worth pinning in the pool
	}
	*rec = msgRec{buf: buf, gen: rec.gen + 1}
	c.recs.Put(rec)
}

// setPayload copies the payload behind the headroom: the caller may reuse data
// at once, however long the message waits for a slot, a recovery or a retry.
func (rec *msgRec) setPayload(data []byte, size int) {
	if rec.hasData = data != nil; rec.hasData {
		size = len(data)
	}
	rec.size = size
	if need := frameHeadroom + len(data); cap(rec.buf) < need {
		rec.buf = make([]byte, need)
	} else {
		rec.buf = rec.buf[:need]
	}
	copy(rec.buf[frameHeadroom:], data)
}

// payload returns the owned payload bytes, nil for a size-only message.
func (rec *msgRec) payload() []byte {
	if !rec.hasData {
		return nil
	}
	return rec.buf[frameHeadroom:]
}
