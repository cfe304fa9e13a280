package xrdma

import "fmt"

// The seq-ack window of Algorithm 1. Sequence numbers start at 1 and are
// assigned per windowed message. The sender may have at most depth
// messages between ACKED and SEQ; the receiver tracks WTA (highest
// received) and RTA (highest ready-to-ack, i.e. contiguous and fully
// received), delivering in order. This is what guarantees RNR-free
// operation: the receiver pre-posts depth receive buffers, and the sender
// never has more than depth windowed messages outstanding.
//
// A window is both halves of one channel: the sender's edges, the receiver's,
// and one slot per in-window sequence. Each half indexes its slot by
// seq % depth, so one array backs both — a channel's window is the one
// allocation establishment makes for it (finishAttach).
type window struct {
	slots []winSlot
	seq   uint64 // last assigned sequence (paper: SEQ)
	acked uint64 // highest cumulatively acked (paper: ACKED)
	wta   uint64 // highest sequence received (paper: WTA)
	rta   uint64 // highest ready-to-ack, contiguous (paper: RTA)
}

// winSlot is a slot of both halves. rec is the record of the unacked message
// sent at it: the replay tail of a cutover, retired as the ack edge advances
// (Algorithm 1's on_acked(messages[i])). recved says whether the message
// received at it is complete.
type winSlot struct {
	rec    *msgRec
	recved bool
}

func newWindow(depth int) window { return window{slots: make([]winSlot, depth)} }

func (w *window) depth() uint64 { return uint64(len(w.slots)) }

func (w *window) slot(seq uint64) *winSlot { return &w.slots[seq%w.depth()] }

// canSend reports whether a window slot is free.
func (w *window) canSend() bool { return w.seq-w.acked < w.depth() }

// next assigns the next sequence number to rec, which at(seq) returns until
// the peer acknowledges it.
func (w *window) next(rec *msgRec) uint64 {
	if !w.canSend() {
		panic("xrdma: window overflow — caller must check canSend")
	}
	w.seq++
	w.slot(w.seq).rec = rec
	return w.seq
}

// at returns the unacked record holding seq.
func (w *window) at(seq uint64) *msgRec { return w.slot(seq).rec }

// inflight reports unacknowledged windowed messages.
func (w *window) inflight() uint64 { return w.seq - w.acked }

// retire advances the cumulative ack edge by one message and returns its
// record. The caller loops up to the peer's ack (acks never regress; a stale
// one retires nothing).
func (w *window) retire() *msgRec {
	if w.acked == w.seq {
		panic(fmt.Sprintf("xrdma: ack beyond seq %d", w.seq))
	}
	w.acked++
	s := w.slot(w.acked)
	rec := s.rec
	s.rec = nil
	return rec
}

// rewind drops the unacked tail, moving the send edge back to the ack
// edge. A recovering channel re-queues everything unacked through the
// normal send path, which re-assigns the same sequence numbers.
func (w *window) rewind() {
	w.seq = w.acked
	for i := range w.slots {
		w.slots[i].rec = nil
	}
}

// The receiver half tracks which in-window sequences are fully received so
// RTA (the cumulative ack edge) advances only through contiguous completed
// messages — Algorithm 1's receiver. Application delivery is the channel's
// business and happens as soon as a message's payload is available: inline
// messages deliver at arrival (hence in order among themselves), rendezvous
// messages deliver when their pull completes. Acks stay strictly cumulative
// either way.

// receive registers an arriving windowed message and reports whether it
// is fresh. recved=false marks a rendezvous message whose payload is
// still being pulled (markRecved completes it). Both transports deliver
// in order, so a fresh message carries exactly wta+1; anything beyond
// that indicates a protocol bug and panics loudly. Sequences at or below
// wta are duplicates — a recovery replay from a sender that never saw
// our ack — and return false so the channel can re-ack without
// re-delivering.
func (w *window) receive(seq uint64, recved bool) bool {
	if seq <= w.wta {
		return false
	}
	if seq != w.wta+1 {
		panic(fmt.Sprintf("xrdma: out-of-order window receive seq=%d wta=%d", seq, w.wta))
	}
	if seq-w.rta > w.depth() {
		panic(fmt.Sprintf("xrdma: window overrun seq=%d rta=%d depth=%d — peer violated the window", seq, w.rta, w.depth()))
	}
	w.wta = seq
	w.slot(seq).recved = recved
	if recved {
		w.advance()
	}
	return true
}

// isRecved reports whether seq's payload has been fully received (and,
// for anything at or below the ack edge, delivered). Only meaningful for
// sequences already registered via receive.
func (w *window) isRecved(seq uint64) bool {
	if seq <= w.rta {
		return true
	}
	if seq > w.wta {
		return false
	}
	return w.slot(seq).recved
}

// markRecved flags a rendezvous message as fully pulled (Algorithm 1's
// rdma_read_done) and advances RTA through any contiguous ready run.
func (w *window) markRecved(seq uint64) {
	if seq <= w.rta || seq > w.wta {
		return // stale replay duplicate — tolerated
	}
	w.slot(seq).recved = true
	w.advance()
}

func (w *window) advance() {
	for w.rta < w.wta && w.slot(w.rta+1).recved {
		w.rta++
	}
}

// ackValue is the cumulative ack to piggyback on outbound traffic.
func (w *window) ackValue() uint64 { return w.rta }
