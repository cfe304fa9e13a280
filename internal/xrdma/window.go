package xrdma

import "fmt"

// The seq-ack window of Algorithm 1. Sequence numbers start at 1 and are
// assigned per windowed message. The sender may have at most depth
// messages between ACKED and SEQ; the receiver tracks WTA (highest
// received) and RTA (highest ready-to-ack, i.e. contiguous and fully
// received), delivering in order. This is what guarantees RNR-free
// operation: the receiver pre-posts depth receive buffers, and the sender
// never has more than depth windowed messages outstanding.

// txWindow is the sender half.
type txWindow struct {
	depth uint64
	seq   uint64 // last assigned sequence (paper: SEQ)
	acked uint64 // highest cumulatively acked (paper: ACKED)

	// sent keeps the record of every unacked message at seq % depth: the
	// replay tail of a cutover, retired as the ack edge advances
	// (Algorithm 1's on_acked(messages[i])).
	sent []*msgRec

	// Stalls counts times the window was full at send (queueing events).
	Stalls int64
}

func newTxWindow(depth int) *txWindow {
	return &txWindow{depth: uint64(depth), sent: make([]*msgRec, depth)}
}

// canSend reports whether a window slot is free.
func (w *txWindow) canSend() bool { return w.seq-w.acked < w.depth }

// next assigns the next sequence number to rec, which at(seq) returns until
// the peer acknowledges it.
func (w *txWindow) next(rec *msgRec) uint64 {
	if !w.canSend() {
		panic("xrdma: txWindow overflow — caller must check canSend")
	}
	w.seq++
	w.sent[w.seq%w.depth] = rec
	return w.seq
}

// at returns the unacked record holding seq.
func (w *txWindow) at(seq uint64) *msgRec { return w.sent[seq%w.depth] }

// inflight reports unacknowledged windowed messages.
func (w *txWindow) inflight() uint64 { return w.seq - w.acked }

// retire advances the cumulative ack edge by one message and returns its
// record. The caller loops up to the peer's ack (acks never regress; a stale
// one retires nothing).
func (w *txWindow) retire() *msgRec {
	if w.acked == w.seq {
		panic(fmt.Sprintf("xrdma: ack beyond seq %d", w.seq))
	}
	w.acked++
	rec := w.sent[w.acked%w.depth]
	w.sent[w.acked%w.depth] = nil
	return rec
}

// rewind drops the unacked tail, moving the send edge back to the ack
// edge. A recovering channel re-queues everything unacked through the
// normal send path, which re-assigns the same sequence numbers.
func (w *txWindow) rewind() {
	w.seq = w.acked
	clear(w.sent)
}

// rxWindow is the receiver half. It tracks which in-window sequences are
// fully received so RTA (the cumulative ack edge) advances only through
// contiguous completed messages — Algorithm 1's receiver. Application
// delivery is the channel's business and happens as soon as a message's
// payload is available: inline messages deliver at arrival (hence in
// order among themselves), rendezvous messages deliver when their pull
// completes. Acks stay strictly cumulative either way.
type rxWindow struct {
	depth  uint64
	wta    uint64 // highest sequence received (paper: WTA)
	rta    uint64 // highest ready-to-ack, contiguous (paper: RTA)
	recved []bool

	// ackFn is the channel's delayed-ack timer callback, bound on the first
	// delayed ack and kept here, off the flyweight Channel.
	ackFn func()
}

func newRxWindow(depth int) *rxWindow {
	return &rxWindow{depth: uint64(depth), recved: make([]bool, depth)}
}

// receive registers an arriving windowed message and reports whether it
// is fresh. recved=false marks a rendezvous message whose payload is
// still being pulled (markRecved completes it). Both transports deliver
// in order, so a fresh message carries exactly wta+1; anything beyond
// that indicates a protocol bug and panics loudly. Sequences at or below
// wta are duplicates — a recovery replay from a sender that never saw
// our ack — and return false so the channel can re-ack without
// re-delivering.
func (w *rxWindow) receive(seq uint64, recved bool) bool {
	if seq <= w.wta {
		return false
	}
	if seq != w.wta+1 {
		panic(fmt.Sprintf("xrdma: out-of-order window receive seq=%d wta=%d", seq, w.wta))
	}
	if seq-w.rta > w.depth {
		panic(fmt.Sprintf("xrdma: window overrun seq=%d rta=%d depth=%d — peer violated the window", seq, w.rta, w.depth))
	}
	w.wta = seq
	w.recved[seq%w.depth] = recved
	if recved {
		w.advance()
	}
	return true
}

// isRecved reports whether seq's payload has been fully received (and,
// for anything at or below the ack edge, delivered). Only meaningful for
// sequences already registered via receive.
func (w *rxWindow) isRecved(seq uint64) bool {
	if seq <= w.rta {
		return true
	}
	if seq > w.wta {
		return false
	}
	return w.recved[seq%w.depth]
}

// markRecved flags a rendezvous message as fully pulled (Algorithm 1's
// rdma_read_done) and advances RTA through any contiguous ready run.
func (w *rxWindow) markRecved(seq uint64) {
	if seq <= w.rta || seq > w.wta {
		return // stale retry duplicate — tolerated
	}
	w.recved[seq%w.depth] = true
	w.advance()
}

func (w *rxWindow) advance() {
	for w.rta < w.wta && w.recved[(w.rta+1)%w.depth] {
		w.rta++
	}
}

// ackValue is the cumulative ack to piggyback on outbound traffic.
func (w *rxWindow) ackValue() uint64 { return w.rta }
