package xrdma

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
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
// use after the restart.

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
	now := c.eng.Now()
	c.drain = DrainDraining
	c.drainCB = cb
	c.drainStarted = now
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

// idle reports whether this channel holds no in-flight work: no unacked
// windowed messages, nothing queued, no waiters, nothing being pulled, no
// attach in flight.
func (ch *Channel) idle() bool {
	if ch.closed {
		return true
	}
	if ch.attach == attachPending || ch.attach == attachQueued {
		return false
	}
	return ch.win.inflight() == 0 && ch.sendQ.Len() == 0 && len(ch.pending) == 0 && ch.win.rta == ch.win.wta
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
		if !ch.idle() {
			all = false
			break
		}
	}
	if !all && now < c.drainStarted.Add(drainDeadline) {
		// Every 64th of the deadline: the 64th poll lands on it exactly.
		c.eng.AfterBg(drainDeadline/64, c.drainScan)
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

// failPending fails every response waiter on this channel, in issue order,
// and returns how many: those a callback adds meanwhile are not this call's.
func (ch *Channel) failPending(err error) (n int) {
	if last := ch.issued.Newest(); last != nil {
		for id, rs := last.msgID, ch.issued.Oldest(); rs != nil && rs.msgID <= id; rs = ch.issued.Oldest() {
			ch.settle(rs)(nil, err)
			n++
		}
	}
	return n
}

// --- handoff blob ------------------------------------------------------------

// handoffVer is the blob's format version (1 was a hand-rolled binary layout).
const handoffVer = 2

var errBadHandoff = errors.New("xrdma: malformed handoff blob")

// handoff is the blob, encoded with encoding/json: the MsgID allocator floor
// plus every serialized classic channel. Each number keeps its field's width,
// so an out-of-range one fails the decode instead of wrapping.
type handoff struct {
	Ver uint8
	// The restarted instance must never reuse a MsgID the old one issued, or
	// a response the peer replays for an old request would settle a fresh one.
	MsgSeq uint64
	Chans  []handoffChan
}

// handoffChan is one channel: identity, negotiation verdict, window floors,
// the unacked replay tail, and peer-granted MR windows.
type handoffChan struct {
	Peer              uint32
	QPN0              uint32 // the link's local QPN at establishment
	PeerQPN, PeerQPN0 uint32
	NegVer            uint8
	Caps              uint32
	Label             [8]byte
	TxFloor, RxFloor  uint64
	Tail              []handoffMsg
	Wins              []RemoteWindow
}

// handoffMsg is one replayable message. Data is null for a size-only
// message and "" for a carried empty payload.
type handoffMsg struct {
	Kind   msgKind
	OneWay bool
	MsgID  uint64
	Size   uint32
	Data   []byte
}

// encodeHandoff freezes every classic channel's protocol state. The tail
// is the unacked windowed messages (sent but not cumulatively acked) in
// sequence order, followed by queued-but-unsequenced sends — exactly what
// requeueUnacked would replay after a recovery, frozen across the restart
// instead.
func (c *Context) encodeHandoff() []byte {
	h := handoff{Ver: handoffVer, MsgSeq: c.msgSeq}
	for _, ch := range c.Channels() {
		l := ch.lk
		if ch.cid != 0 || ch.closed || ch.Mocked() || l.port <= 0 {
			continue
		}
		r := handoffChan{
			Peer: uint32(ch.Peer), QPN0: l.qpn0, PeerQPN: l.peerQPN, PeerQPN0: l.peerQPN0,
			NegVer: l.ver, Caps: l.caps, TxFloor: ch.win.acked, RxFloor: ch.win.rta,
		}
		if t := ch.tenant; t != nil {
			r.Label = t.label
		}
		add := func(ps *msgRec) {
			r.Tail = append(r.Tail, handoffMsg{Kind: ps.mkind, OneWay: ps.oneWay, MsgID: ps.msgID, Size: uint32(ps.size), Data: ps.payload()})
		}
		for s := ch.win.acked + 1; s <= ch.win.seq; s++ {
			if ps := ch.win.at(s); ps != nil {
				add(ps)
			}
		}
		for rec := ch.sendQ.Head(); rec != nil; rec = rec.next {
			add(rec)
		}
		for _, id := range slices.Sorted(maps.Keys(ch.remoteWins)) {
			r.Wins = append(r.Wins, ch.remoteWins[id])
		}
		h.Chans = append(h.Chans, r)
	}
	b, _ := json.Marshal(h) // plain data: Marshal cannot fail
	return b
}

// decodeHandoff parses a handoff blob defensively. Malformed JSON, a number
// outside its field's width, a blob from another release (unknown Ver), a
// channel without an identity and a tail message that is not a REQ or RESP
// are all errBadHandoff: the restarted instance must never limp along on
// half-parsed state.
func decodeHandoff(b []byte) (*handoff, error) {
	h := &handoff{}
	if err := json.Unmarshal(b, h); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadHandoff, err)
	}
	if h.Ver != handoffVer {
		return nil, fmt.Errorf("%w: unknown blob version %d", errBadHandoff, h.Ver)
	}
	for i, r := range h.Chans {
		if r.QPN0 == 0 {
			return nil, fmt.Errorf("%w: channel %d has no identity", errBadHandoff, i)
		}
		for _, m := range r.Tail {
			if m.Kind != kindReq && m.Kind != kindResp {
				return nil, fmt.Errorf("%w: channel %d tail kind %d", errBadHandoff, i, m.Kind)
			}
		}
		for _, w := range r.Wins {
			if w.Len < 0 || int64(w.Len) > math.MaxUint32 {
				return nil, fmt.Errorf("%w: channel %d window length %d", errBadHandoff, i, w.Len)
			}
		}
	}
	return h, nil
}

// --- restart -----------------------------------------------------------------

// Shutdown releases everything the restarted instance will need to
// re-acquire: CM and TCP listeners, QPs (exclusive and shared), timers
// (started=false strands every armed scan), and the memory cache's
// registered regions; its channels, closed, have no XR-Stat row left and read
// QPN 0. App callbacks do NOT fire — the process is going down, not the peers.
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
		ch.stall(false)
		c.eng.Cancel(ch.ackEv)
	}
	c.chanByCID.Clear()
	c.qpnTab.Clear()
	for _, l := range c.allLinks() {
		if l.closeFallback(); l.qp != nil {
			c.vctx.NIC.DestroyQP(l.qp)
			l.qp = nil // a handle kept past the restart reads no QPN
		}
		l.takePool() // its blocks go with the cache's regions below
		l.close()    // cancels a dial in flight
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
	c.msgSeq = max(c.msgSeq, h.MsgSeq)
	now := c.eng.Now()
	for i := range h.Chans {
		r := &h.Chans[i]
		// The link keeps its identity pair, which the peer's redial and Mock
		// hello are matched on.
		l := c.newEnd(fabric.NodeID(r.Peer), attachDone, linkDegraded)
		ch := l.solo[0]
		ch.health = HealthDegraded
		l.peerQPN, l.peerQPN0, l.ver, l.caps, l.degradedAt = r.PeerQPN, r.PeerQPN0, r.NegVer, r.Caps, now
		l.qpn0 = r.QPN0
		ch.win.seq, ch.win.acked, ch.win.wta, ch.win.rta = r.TxFloor, r.TxFloor, r.RxFloor, r.RxFloor
		if r.Label != ([8]byte{}) {
			ch.tenant = c.tenantByLabel(r.Label)
		}
		for _, m := range r.Tail {
			rec := ch.newMsg(m.Kind, m.MsgID, m.Data, int(m.Size))
			rec.oneWay, rec.enqAt, rec.holds = m.OneWay, now, holdSendQ
			ch.sendQ.Push(rec)
		}
		for _, w := range r.Wins {
			if ch.remoteWins == nil {
				ch.remoteWins = make(map[uint64]RemoteWindow, len(r.Wins))
			}
			ch.remoteWins[w.ID] = w
		}
		c.Stats.Rehydrated++
		c.Stats.ChannelsOpened++
		c.tel.Flight.Record(now, telemetry.CatDrain, int32(c.Node()), r.QPN0, int64(r.Peer), drainEvRehydrate)
		if c.onChannel != nil {
			c.onChannel(ch)
		}
		l.reestablish(errRestartHandoff)
	}
	return nil
}
