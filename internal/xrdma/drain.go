package xrdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
)

// Graceful drain and rolling restart (hot-upgrade plane). A production
// middleware is upgraded node by node under live traffic: Drain moves the
// context Serving→Draining→Drained — new establishment is refused loudly
// (ErrDraining), in-flight requests run to completion under a bounded
// deadline, and the surviving protocol state (peer rendezvous keys, the
// seq-ack window floors, the unacked replay tail, tenant bindings, granted
// MR windows, the negotiation verdict) is frozen into a handoff blob. The
// restarted instance — possibly at a bumped protocol version — rehydrates
// the blob and re-establishes each channel through the recovery plane; the
// seq-ack window of Algorithm 1 dedups the replayed tail, so the restart
// is exactly-once in both directions.
//
// Scope: the blob covers classic (exclusive-QP) channels. Mux-plane
// contexts drain and refuse like everyone else, but shared-QP channels are
// not serialized — their flyweight descriptors re-attach lazily on first
// use after the restart. The receiver-side idempotency cache (respCache)
// does not survive either: a deployment that drains under RequestRetries>0
// accepts at-least-once for requests retried across the restart window.

// DrainState is the context's drain lifecycle.
type DrainState uint8

const (
	DrainServing DrainState = iota
	DrainDraining
	DrainDrained
)

func (d DrainState) String() string { return [...]string{"serving", "draining", "drained"}[d] }

// Drain flight-event codes (the B value of CatDrain records).
const (
	drainEvStart     = iota // context entered Draining
	drainEvRefusal          // establishment/attach refused while draining
	drainEvQuiesce          // every channel quiesced inside the deadline
	drainEvForced           // deadline expired; waiters failed, tail frozen
	drainEvHandoff          // handoff blob sealed
	drainEvRehydrate        // one channel restored from a handoff blob
)

// drainRejectReason is the CM reject text a draining listener (Context.accept)
// sends; the dialer's mapDialErr recognizes it and surfaces ErrDraining
// instead of a generic rejection.
const drainRejectReason = "draining"

// errRestartHandoff is the recovery cause for rehydrated channels.
var errRestartHandoff = errors.New("xrdma: restart handoff")

// DrainPhase reports where the context is in the drain lifecycle.
func (c *Context) DrainPhase() DrainState { return c.drain }

// mapDialErr translates a peer's drain refusal into ErrDraining on the
// dialing side; every other dial error passes through untouched.
func mapDialErr(err error) error {
	if errors.Is(err, verbs.ErrRejected) && strings.Contains(err.Error(), drainRejectReason) {
		return fmt.Errorf("%w: %v", ErrDraining, err)
	}
	return err
}

// Drain begins the graceful shutdown: Serving→Draining now, then Drained
// once every channel quiesces (or the deadline forces the issue), at which
// point cb receives the handoff blob for the restarted instance. Calling
// Drain on a non-Serving context returns ErrDraining.
func (c *Context) Drain(cb func(blob []byte)) error {
	if c.drain != DrainServing {
		return ErrDraining
	}
	now, dl := c.eng.Now(), c.cfg.DrainDeadline
	c.drain = DrainDraining
	c.drainCB = cb
	c.drainStarted = now
	c.drainDeadline = now.Add(dl)
	c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), 0, int64(c.NumChannels()), drainEvStart)
	// Flush the attach admission FIFO instead of serving it: queued lazy
	// attaches (including tenant-shed parkees, PR 8) fail with ErrDraining
	// now. attachRelease rotates still-gated heads back to the tail, so
	// leaving them queued on a node that will never lift the gate again
	// would strand their callbacks forever.
	q := c.attachQ.Items()
	c.attachQ = sim.Queue[*Channel]{}
	for _, ch := range q {
		if ch.closed || ch.attach != attachQueued {
			continue
		}
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), 0, int64(ch.cid), drainEvRefusal)
		ch.finishAttach(ErrDraining)
	}
	c.drainScan()
	return nil
}

// drainQuiesced reports whether this channel holds no in-flight work: no
// unacked windowed messages, nothing queued, no response waiters, no
// rendezvous pulls, no attach in flight.
func (ch *Channel) drainQuiesced() bool {
	if ch.closed {
		return true
	}
	if ch.attach == attachPending || ch.attach == attachQueued {
		return false
	}
	return ch.win.inflight() == 0 && ch.sendQ.Len() == 0 && len(ch.pending) == 0 && len(ch.pulls) == 0
}

// drainScan polls the quiesce condition until it holds or the deadline
// passes, then seals the handoff blob.
func (c *Context) drainScan() {
	if c.drain != DrainDraining || !c.started {
		return
	}
	now := c.eng.Now()
	all := true
	for _, ch := range c.Channels() {
		if !ch.drainQuiesced() {
			all = false
			break
		}
	}
	if !all && now < c.drainDeadline {
		period := (c.drainDeadline.Sub(c.drainStarted)) / 64
		if period < 10*sim.Microsecond {
			period = 10 * sim.Microsecond
		}
		c.eng.AfterBg(period, c.drainScan)
		return
	}
	if all {
		c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), 0, int64(now.Sub(c.drainStarted)), drainEvQuiesce)
	} else {
		// Deadline forced: response waiters fail loudly now — their
		// requests stay in the frozen tail and replay after the restart
		// (the peer's window dedups any that already landed), so the
		// operations themselves are not lost, only these callers' waits.
		forced := 0
		for _, ch := range c.Channels() {
			forced += ch.failPending(ErrDraining)
		}
		c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), 0, int64(forced), drainEvForced)
	}
	c.drain = DrainDrained
	blob := c.encodeHandoff()
	c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), 0, int64(len(blob)), drainEvHandoff)
	if cb := c.drainCB; cb != nil {
		c.drainCB = nil
		cb(blob)
	}
}

// failPending fails every pending response waiter on this channel, in
// ascending MsgID order (map iteration order must not leak into the
// deterministic digests). Returns how many were failed. An empty map, what
// most closes find, is not sorted.
func (ch *Channel) failPending(err error) int {
	if len(ch.pending) == 0 {
		return 0
	}
	n := 0
	for _, id := range slices.Sorted(maps.Keys(ch.pending)) {
		if rs := ch.pending[id]; rs != nil { // not removed by an earlier callback
			n++
			ch.settle(rs)(nil, err)
		}
	}
	return n
}

// --- handoff blob ------------------------------------------------------------

const (
	handoffMagic = 0x4858 // "XH"
	handoffVer   = 1

	// Hostile-blob hardening caps: a corrupt or adversarial count field
	// must not drive a multi-gigabyte allocation before the length checks
	// can catch it.
	handoffMaxChans = 1 << 16
	handoffMaxQPNs  = 64
	handoffMaxTail  = 1 << 20
	handoffMaxWins  = 1 << 16
)

var errBadHandoff = errors.New("xrdma: malformed handoff blob")

// handoffChan is one serialized channel: identity, negotiation verdict,
// window floors, the unacked replay tail, and peer-granted MR windows.
type handoffChan struct {
	peer     fabric.NodeID
	qpns     []uint32
	peerQPN  uint32
	peerQPN0 uint32
	negVer   uint8
	caps     uint32
	label    [8]byte
	txFloor  uint64
	rxFloor  uint64
	tail     []handoffMsg
	wins     []RemoteWindow
}

type handoffMsg struct {
	kind   uint8
	oneWay bool
	msgID  uint64
	size   uint32
	data   []byte
}

// encodeHandoff freezes every classic channel's protocol state. The tail
// is the unacked windowed messages (sent but not cumulatively acked) in
// sequence order, followed by queued-but-unsequenced sends — exactly what
// requeueUnacked would replay after a recovery, frozen across the restart
// instead.
func (c *Context) encodeHandoff() []byte {
	var chans []*Channel
	for _, ch := range c.Channels() {
		if ch.cid == 0 && !ch.closed && !ch.Mocked() && len(ch.lk.qpns) > 0 {
			chans = append(chans, ch)
		}
	}
	var b []byte
	u16 := func(v uint16) { b = binary.LittleEndian.AppendUint16(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u16(handoffMagic)
	b = append(b, handoffVer, 0)
	// The MsgID allocator floor: the restarted instance must never reuse a
	// MsgID the old one issued, or the peer's idempotency cache would
	// swallow fresh requests as duplicates.
	u64(c.msgSeq)
	u32(uint32(len(chans)))
	for _, ch := range chans {
		l := ch.lk
		u32(uint32(ch.Peer))
		b = append(b, uint8(len(l.qpns)))
		for _, q := range l.qpns {
			u32(q)
		}
		u32(l.peerQPN)
		u32(l.peerQPN0)
		b = append(b, l.ver)
		u32(l.caps)
		var label [8]byte
		if t := ch.tenant; t != nil {
			label = t.label
		}
		b = append(b, label[:]...)
		u64(ch.win.acked)
		u64(ch.win.rta)
		var tail []*msgRec
		for s := ch.win.acked + 1; s <= ch.win.seq; s++ {
			if ps := ch.win.at(s); ps != nil {
				tail = append(tail, ps)
			}
		}
		for rec := ch.sendQ.Head(); rec != nil; rec = rec.next {
			tail = append(tail, rec)
		}
		u32(uint32(len(tail)))
		for _, ps := range tail {
			data := ps.payload()
			oneWay := byte(0)
			if ps.oneWay {
				oneWay = 1
			}
			b = append(b, uint8(ps.mkind), oneWay)
			u64(ps.msgID)
			u32(uint32(ps.size))
			u32(uint32(len(data)))
			b = append(b, data...)
		}
		u32(uint32(len(ch.remoteWins)))
		for _, id := range slices.Sorted(maps.Keys(ch.remoteWins)) {
			w := ch.remoteWins[id]
			u64(w.ID)
			u64(w.Addr)
			u32(w.RKey)
			u32(uint32(w.Len))
		}
	}
	return b
}

// handoff is a decoded blob: the MsgID allocator floor plus every
// serialized channel.
type handoff struct {
	msgSeq uint64
	chans  []handoffChan
}

// decodeHandoff parses a handoff blob defensively: every length is checked
// before it is trusted, counts are capped, and a blob from a future
// release (unknown blobVer) is an explicit error — the restarted instance
// must never limp along on half-parsed state.
func decodeHandoff(b []byte) (*handoff, error) {
	r := &handoffReader{b: b}
	if r.u16() != handoffMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadHandoff)
	}
	if v := r.u8(); v != handoffVer {
		return nil, fmt.Errorf("%w: unknown blob version %d", errBadHandoff, v)
	}
	r.u8() // reserved
	h := &handoff{msgSeq: r.u64()}
	n := int(r.u32())
	if n < 0 || n > handoffMaxChans {
		return nil, fmt.Errorf("%w: channel count %d", errBadHandoff, n)
	}
	recs := make([]handoffChan, 0, min(n, 256))
	for i := 0; i < n; i++ {
		var rec handoffChan
		rec.peer = fabric.NodeID(r.u32())
		nq := int(r.u8())
		if nq > handoffMaxQPNs {
			return nil, fmt.Errorf("%w: qpn count %d", errBadHandoff, nq)
		}
		for j := 0; j < nq; j++ {
			rec.qpns = append(rec.qpns, r.u32())
		}
		rec.peerQPN = r.u32()
		rec.peerQPN0 = r.u32()
		rec.negVer = r.u8()
		rec.caps = r.u32()
		copy(rec.label[:], r.bytes(8))
		rec.txFloor = r.u64()
		rec.rxFloor = r.u64()
		nt := int(r.u32())
		if nt > handoffMaxTail {
			return nil, fmt.Errorf("%w: tail count %d", errBadHandoff, nt)
		}
		for j := 0; j < nt; j++ {
			var m handoffMsg
			m.kind = r.u8()
			m.oneWay = r.u8() != 0
			m.msgID = r.u64()
			m.size = r.u32()
			dl := int(r.u32())
			if r.bad || dl < 0 || dl > len(r.b)-r.off {
				return nil, fmt.Errorf("%w: tail payload length", errBadHandoff)
			}
			if dl > 0 {
				m.data = append([]byte(nil), r.bytes(dl)...)
			}
			rec.tail = append(rec.tail, m)
		}
		nw := int(r.u32())
		if nw > handoffMaxWins {
			return nil, fmt.Errorf("%w: window count %d", errBadHandoff, nw)
		}
		for j := 0; j < nw; j++ {
			rec.wins = append(rec.wins, RemoteWindow{
				ID: r.u64(), Addr: r.u64(), RKey: r.u32(), Len: int(r.u32()),
			})
		}
		if r.bad {
			return nil, fmt.Errorf("%w: truncated at channel %d", errBadHandoff, i)
		}
		recs = append(recs, rec)
	}
	if r.bad {
		return nil, fmt.Errorf("%w: truncated", errBadHandoff)
	}
	h.chans = recs
	return h, nil
}

// handoffReader is a bounds-checked cursor; any overrun latches bad
// instead of panicking, and the caller checks once per record.
type handoffReader struct {
	b   []byte
	off int
	bad bool
}

func (r *handoffReader) bytes(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return make([]byte, n)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *handoffReader) u8() uint8   { return r.bytes(1)[0] }
func (r *handoffReader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }
func (r *handoffReader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *handoffReader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }

// --- restart -----------------------------------------------------------------

// Shutdown releases everything the restarted instance will need to
// re-acquire: CM and TCP listeners, QPs (exclusive and shared), timers
// (started=false strands every armed scan), and the memory cache's
// registered regions; its channels, closed, have no XR-Stat row left. App
// callbacks do NOT fire — the process is going down, not the peers.
func (c *Context) Shutdown() {
	c.unparkPoll(pollEvery)
	c.started = false
	for _, p := range c.listenPorts {
		c.cm.Unlisten(p)
	}
	c.listenPorts = nil
	if c.tcp != nil && c.mockPort > 0 {
		c.tcp.Unlisten(c.mockPort)
	}
	for _, ch := range c.Channels() { // live ones only: a closed channel is delisted
		ch.closed = true
		c.eng.Cancel(ch.ackEv)
	}
	c.chanByCID.Clear()
	for _, l := range c.allLinks() {
		// A link on the Mock fallback already surrendered its QP.
		if l.state == linkFallback {
			l.closeFallback()
		} else if l.qp != nil {
			c.vctx.NIC.DestroyQP(l.qp)
		}
		l.close() // cancels a dial in flight
	}
	// Registered memory does not survive the process: drop the cache's
	// regions and zero the accounting, so leak assertions on the old
	// instance see a clean slate.
	c.Mem.Reset()
}

// Rehydrate restores channels from a handoff blob on a freshly started
// context (typically at a bumped protocol version). Each channel comes
// back on a Degraded link with its window floors, replay tail, tenant
// binding and negotiation verdict intact — the link machine re-establishes
// the transport (lower node id dials; the higher side waits, bounded), and the
// replay dedups against the peer's window exactly like a transient-fault
// recovery. The serialized negotiation verdict is kept as-is: a restarted
// v2 node keeps speaking v1 on channels negotiated with v1 peers.
func (c *Context) Rehydrate(blob []byte) error {
	if c.recoverPort <= 0 {
		return errors.New("xrdma: Rehydrate requires Options.RecoverPort")
	}
	h, err := decodeHandoff(blob)
	if err != nil {
		return err
	}
	c.msgSeq = max(c.msgSeq, h.msgSeq)
	now := c.eng.Now()
	for i := range h.chans {
		r := &h.chans[i]
		if len(r.qpns) == 0 {
			continue
		}
		ch := c.newChannel(r.peer, attachDone)
		ch.health = HealthDegraded
		// The link keeps every pre-restart QPN: the establishment pair is the
		// identity the peer's redial is matched on, the newest is what its
		// Mock hello names.
		l := c.newLink(ch, linkDegraded)
		l.peerQPN, l.peerQPN0, l.ver, l.caps, l.degradedAt = r.peerQPN, r.peerQPN0, r.negVer, r.caps, now
		l.qpns = r.qpns
		ch.win = newWindow(c.cfg.WindowDepth)
		ch.win.seq, ch.win.acked, ch.win.wta, ch.win.rta = r.txFloor, r.txFloor, r.rxFloor, r.rxFloor
		if r.label != ([8]byte{}) {
			ch.tenant = c.tenantByLabel(r.label)
		}
		for _, m := range r.tail {
			rec := ch.newMsg(msgKind(m.kind), m.msgID, m.data, int(m.size))
			rec.oneWay, rec.enqAt, rec.holds = m.oneWay, now, holdSendQ
			ch.sendQ.Push(rec)
		}
		for _, w := range r.wins {
			if ch.remoteWins == nil {
				ch.remoteWins = make(map[uint64]RemoteWindow, len(r.wins))
			}
			ch.remoteWins[w.ID] = w
		}
		c.Stats.Rehydrated++
		c.Stats.ChannelsOpened++
		c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), r.qpns[len(r.qpns)-1], int64(r.peer), drainEvRehydrate)
		if c.onChannel != nil {
			c.onChannel(ch)
		}
		l.reestablish(errRestartHandoff)
	}
	return nil
}
