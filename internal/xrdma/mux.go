package xrdma

import (
	"errors"
	"fmt"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/telemetry"
)

// QP multiplexing (Config.QPsPerPeer > 0): the connection-scaling layer.
// Per-channel QPs are §III Issue 1's scalability killer — at 4000 hosts a
// full-mesh service needs millions of QPs, each with its own receive pool
// and NIC-side WQE/ICM state. The mux plane shares a small pool of QPs
// per peer node instead: channels become flyweight protocol state (seq-ack
// window + counters), every receive lands in the context's SRQ, and the
// wire header's Chan field demultiplexes inbound messages to the owning
// channel. Channels are lazy descriptors until the first send triggers a
// QP-pool attach (a CHAN_OPEN/CHAN_ACCEPT handshake over the shared QP),
// bounded by an admission cap so a process-start connection storm
// serializes deterministically instead of thundering onto the CM.
//
// Failure domains move with the sharing: keepalive probes, path-doctor
// scoring and ECMP re-pathing, and health recovery all run per shared QP.
// One sick QP rotates its flow label once for all attached channels; one
// broken QP re-establishes once, and every attached channel replays its
// unacked window tail over the replacement — the Algorithm 1 dedup makes
// each cutover exactly-once per channel.

// ErrMuxDisabled is returned when mux-only APIs run on a legacy context.
var ErrMuxDisabled = errors.New("xrdma: QP multiplexing not enabled (Config.QPsPerPeer == 0)")

// Channel attach states. The zero value means "established" so legacy
// channels (and passive muxed channels, created attached) need no setup.
const (
	attachDone    uint8 = iota // established; send path live
	attachLazy                 // descriptor only; first send triggers attach
	attachQueued               // waiting for an admission slot
	attachPending              // CHAN_OPEN in flight, or the link still establishing
)

// peerMux is the per-peer QP pool: at most Config.QPsPerPeer shared QPs,
// filled on demand and then assigned round-robin.
type peerMux struct {
	peer  fabric.NodeID
	port  int
	slots []*muxQP
	next  int
}

// muxQP is one shared QP — a link (link.go) — and the channels multiplexed
// onto it. The link is the unit of fate: muxed channels have no per-channel
// Mock fallback, so an exhausted link takes every rider down with it.
type muxQP struct {
	link
	pm *peerMux // nil on the passive (accepting) side

	// The channels multiplexed here, in attach order == ascending cid (the
	// deterministic walk order). Inbound frames find theirs through the
	// context's cid table, checked against this link.
	chans    []*Channel
	peerCIDs map[uint32]uint32 // peer cid → local cid (CHAN_OPEN dedup)
}

// muxQPDepth is a shared QP's send-queue capacity: it must cover the sum
// of the attached channels' windows (queue storage grows lazily, so the
// generous cap is free until used).
const muxQPDepth = 4096

// newMuxQP builds a shared QP in the dialing state. The establishment port
// is also the reattach rendezvous, and only the initiator has a dial route
// to it. Unlike exclusive QPs, which redial with recycled QPs from the QP
// cache, shared QPs are SRQ-bound and cannot be cached — both sides pay
// the full QP create+modify hardware-command cost inside the dial window,
// so the configured timeout alone would expire right as the accept lands.
func (c *Context) newMuxQP(pm *peerMux, peer fabric.NodeID, port int) *muxQP {
	mx := &muxQP{pm: pm, peerCIDs: make(map[uint32]uint32)}
	mx.link = link{
		c: c, own: mx, peer: peer, state: linkDialing,
		port: port, dialer: pm != nil, redial: helloMuxReattach, depth: muxQPDepth,
		dialTimeout: c.cfg.RecoverDialTimeout + 2*rnic.QPCreateCost + 8*rnic.QPModifyCost,
	}
	if len(c.cfg.Tenants) > 0 {
		// Weighted DRR at the shared SQ, so the pool honors tenant weights
		// instead of FIFO head-of-line; zero-tenant configs keep the direct
		// post path bit-for-bit.
		mx.sched = newSQSched(c)
	}
	c.links = append(c.links, &mx.link)
	return mx
}

// --- context surface ---------------------------------------------------------

func (c *Context) muxEnabled() bool { return c.cfg.QPsPerPeer > 0 }

func (c *Context) nextCID() uint32 { c.cidSeq++; return c.cidSeq }

// ChannelTo returns a lazy channel descriptor to (node, port): a few
// hundred bytes of state and no QP, window or buffer until the first send
// (or Ping) triggers the attach handshake. Requires QP multiplexing.
// Options label the descriptor (WithTenant) before any frame leaves.
func (c *Context) ChannelTo(node fabric.NodeID, port int, opts ...ChannelOpt) (*Channel, error) {
	if !c.muxEnabled() {
		return nil, ErrMuxDisabled
	}
	ch := c.newChannel(node, attachLazy)
	ch.cid, ch.muxPort = c.nextCID(), port
	for _, opt := range opts {
		if err := opt(ch); err != nil {
			return nil, err
		}
	}
	c.chanByCID[ch.cid] = ch
	return ch, nil
}

// requestAttach moves a lazy descriptor toward establishment, honoring
// the admission cap.
func (ch *Channel) requestAttach() {
	if ch.attach != attachLazy || ch.closed {
		return
	}
	c := ch.ctx
	if c.drain != DrainServing {
		// A draining node starts no new work: refuse loudly instead of
		// parking — the admission FIFO is being flushed, not served.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), 0, int64(ch.cid), drainEvRefusal)
		ch.finishAttach(ErrDraining)
		return
	}
	// Shed gate: under global memory pressure, or while this channel's
	// tenant is in a shed episode, new attaches queue instead of
	// establishing — graceful degradation reusing the admission FIFO.
	if ch.shedGated() {
		ch.attach = attachQueued
		c.attachQ = append(c.attachQ, ch)
		if t := ch.tenant; t != nil {
			t.AttachSheds++
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatTenantShed, int32(c.Node()), uint32(t.id), int64(ch.cid), 1)
		}
		return
	}
	if lim := c.cfg.AttachAdmission; lim > 0 && c.attachActive >= lim {
		ch.attach = attachQueued
		c.attachQ = append(c.attachQ, ch)
		return
	}
	ch.startAttach()
}

func (ch *Channel) startAttach() {
	c := ch.ctx
	ch.attach = attachPending
	c.attachActive++
	mx := c.muxFor(ch.Peer, ch.muxPort)
	ch.lk = &mx.link
	mx.chans = append(mx.chans, ch)
	if mx.state == linkReady {
		mx.sendChanOpen(ch) // otherwise adopted() opens it once the QP is live
	}
}

// attachRelease frees one admission slot and hands it to the FIFO.
func (c *Context) attachRelease() {
	if c.attachActive > 0 {
		c.attachActive--
	}
	c.attachAdmit(1)
}

// attachAdmit makes one bounded pass over the admission FIFO and starts up
// to max queued attaches while AttachAdmission has room: all of them after a
// shed episode or the global memory pressure clears, one for a freed slot.
// Heads whose shed gate has not lifted rotate to the tail and wait for the
// pass their episode's end triggers.
func (c *Context) attachAdmit(max int) {
	for scan := len(c.attachQ); scan > 0 && max > 0 && len(c.attachQ) > 0; scan-- {
		if lim := c.cfg.AttachAdmission; lim > 0 && c.attachActive >= lim {
			return
		}
		next := c.attachQ[0]
		c.attachQ = c.attachQ[1:]
		if next.closed || next.attach != attachQueued {
			continue
		}
		if next.shedGated() {
			c.attachQ = append(c.attachQ, next)
			continue
		}
		next.startAttach()
		max--
	}
}

// finishAttach completes a pending establishment — or fails it: teardown
// frees the admission slot and tells whoever waited.
func (ch *Channel) finishAttach(err error) {
	c := ch.ctx
	if err != nil {
		if !ch.closed {
			c.Stats.ChannelsBroken++
			ch.teardown(err)
		}
		return
	}
	held := ch.attach == attachPending && ch.cid != 0 // only muxed attaches pass admission
	ch.attach = attachDone
	ch.tx = newTxWindow(c.cfg.WindowDepth)
	ch.rx = newRxWindow(c.cfg.WindowDepth)
	c.Stats.ChannelsOpened++
	ch.registerGauges()
	if held {
		c.attachRelease()
	}
	ch.attachSettled(nil)
	ch.pump()
}

// onAttach queues what to do once the channel's establishment settles:
// Connect's callback, or a Ping or one-sided verb issued on a descriptor.
func (ch *Channel) onAttach(ok func(), failed func(error)) {
	ch.attachCBs = append(ch.attachCBs, func(err error) {
		if err != nil {
			failed(err)
			return
		}
		ok()
	})
}

func (ch *Channel) attachSettled(err error) {
	cbs := ch.attachCBs
	ch.attachCBs = nil
	for _, cb := range cbs {
		cb(err)
	}
}

// muxFor picks (creating on demand) the shared QP a new channel attaches
// to: fill the pool first, then round-robin, replacing dead slots.
func (c *Context) muxFor(peer fabric.NodeID, port int) *muxQP {
	pm := c.mux[peer]
	if pm == nil {
		pm = &peerMux{peer: peer, port: port}
		c.mux[peer] = pm
	}
	i := len(pm.slots)
	if i < c.cfg.QPsPerPeer {
		pm.slots = append(pm.slots, nil)
	} else {
		i = pm.next % len(pm.slots)
		pm.next++
	}
	if mx := pm.slots[i]; mx == nil || mx.state == linkDead {
		mx = c.newMuxQP(pm, pm.peer, pm.port)
		pm.slots[i] = mx
		mx.dial(pm.port, c.dialHello(hello{purpose: helloMuxSlot, slot: uint16(i)}), nil)
	}
	return pm.slots[i]
}

// detach removes a channel (teardown).
func (mx *muxQP) detach(ch *Channel) {
	if i := slices.Index(mx.chans, ch); i >= 0 {
		mx.chans = slices.Delete(mx.chans, i, i+1)
	}
	if ch.peerCID != 0 {
		delete(mx.peerCIDs, ch.peerCID)
	}
}

// riders lists attached channels in ascending cid order (cids are assigned
// monotonically, so attach order is already sorted).
func (mx *muxQP) riders() []*Channel { return mx.chans }

// rider resolves the channel an inbound header's Chan field names; a cid
// that rides another QP (or none) names nothing here.
func (mx *muxQP) rider(cid uint32) *Channel {
	if ch := mx.c.chanByCID[cid]; ch != nil && ch.lk == &mx.link {
		return ch
	}
	return nil
}

func (mx *muxQP) sendChanOpen(ch *Channel) {
	h := &wireHdr{Kind: kindChanOpen, Chan: ch.cid, MsgID: uint64(ch.muxPort)}
	if t := ch.tenant; t != nil {
		// The label rides the open so the passive side binds the tenant
		// before the first data frame arrives.
		h.Flags |= flagTenant
		h.Tenant = t.id
		h.TLabel = t.label
	}
	mx.sendCtrl(h)
}

// --- inbound demux -----------------------------------------------------------

// handleWire is the shared owner's inbound hook: mux-plane control frames
// are handled here, everything else demultiplexes to the owning channel by
// the header's Chan field (the receiver's cid).
func (mx *muxQP) handleWire(h *wireHdr, pay []byte, overMock bool, rxBlame *telemetry.PktBlame) {
	switch h.Kind {
	case kindChanOpen:
		mx.handleChanOpen(h)
	case kindChanAccept:
		mx.handleChanAccept(h)
	case kindChanClose:
		if ch := mx.rider(h.Chan); ch != nil {
			ch.peerClosed = true
			if ch.attach == attachPending {
				// The peer refused our CHAN_OPEN (it is draining): resolve
				// the waiting attach loudly instead of letting it hang.
				ch.finishAttach(ErrDraining)
				return
			}
			ch.teardown(nil)
		}
	case kindMuxSick:
		// The responder's doctor gave up on the shared QP (e.g. inbound
		// corruption its own flow-label rotation cannot cure). Recovery is
		// initiator-owned: treat the report as our own escalation.
		if mx.dialer {
			mx.fail(fmt.Errorf("xrdma: peer reported shared QP sick"))
		}
	default:
		if ch := mx.rider(h.Chan); ch != nil {
			ch.handleWire(h, pay, overMock, rxBlame)
		}
	}
}

// handleChanOpen creates the passive half of a muxed channel. The peer's
// cid keys the dedup: a replayed open (lost accept across a mux
// recovery) only re-sends the accept.
func (mx *muxQP) handleChanOpen(h *wireHdr) {
	c := mx.c
	if lcid, dup := mx.peerCIDs[h.Chan]; dup {
		mx.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(lcid)})
		return
	}
	if c.drain != DrainServing {
		// New channel over an existing shared QP is still new work: close
		// it back so the dialer's attach fails with ErrDraining instead of
		// hanging until the restart.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), mx.qp.QPN, int64(h.Chan), drainEvRefusal)
		mx.sendCtrl(&wireHdr{Kind: kindChanClose, Chan: h.Chan})
		return
	}
	ch := c.newChannel(mx.peer, attachDone)
	ch.cid, ch.peerCID, ch.lk, ch.muxPort = c.nextCID(), h.Chan, &mx.link, int(h.MsgID)
	ch.tx, ch.rx = newTxWindow(c.cfg.WindowDepth), newRxWindow(c.cfg.WindowDepth)
	if h.Flags&flagTenant != 0 && len(c.tenants) > 0 {
		ch.tenant = c.resolveTenant(h)
	}
	c.chanByCID[ch.cid] = ch
	mx.chans = append(mx.chans, ch)
	mx.peerCIDs[ch.peerCID] = ch.cid
	c.Stats.ChannelsOpened++
	ch.registerGauges()
	mx.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(ch.cid)})
	if c.onChannel != nil {
		c.onChannel(ch)
	}
}

func (mx *muxQP) handleChanAccept(h *wireHdr) {
	ch := mx.c.chanByCID[h.Chan]
	if ch == nil || ch.closed || ch.attach == attachDone {
		return
	}
	ch.peerCID = uint32(h.MsgID)
	mx.peerCIDs[ch.peerCID] = ch.cid
	ch.finishAttach(nil)
}

// --- link owner hooks -------------------------------------------------------

func (mx *muxQP) acquire(fn func(*rnic.QP, []Buffer)) { fn(nil, nil) }

// release destroys an unused QP: shared QPs are SRQ-bound and never enter
// the (per-channel) QP cache — a recycled SRQ QP handed to an exclusive
// channel could not post per-channel receives.
func (mx *muxQP) release(qp *rnic.QP, _ []Buffer) {
	if qp != nil {
		mx.c.vctx.NIC.DestroyQP(qp)
	}
}

func (mx *muxQP) parked() {
	if !mx.dialer {
		// Only the initiator can redial a shared QP — the passive side has
		// no dial route. Ask it to. When sickness was declared by the path
		// doctor (not a hard verbs error) the QP is still in RTS, so this
		// ctrl frame rides the reliable wire; if the QP really is broken the
		// post just flushes and the initiator's keepalive finds out on its
		// own.
		mx.emitCtrl(nil, &wireHdr{Kind: kindMuxSick}, nil, nil)
	}
}

// adopted (re)opens every channel still waiting for its accept — at
// establishment, and again after a recovery that swallowed the CHAN_OPEN.
func (mx *muxQP) adopted() {
	if !mx.dialer {
		return
	}
	for _, ch := range slices.Clone(mx.chans) {
		if ch.attach == attachPending {
			mx.sendChanOpen(ch)
		}
	}
}

// exhausted is the terminal path: the redial budget ran out (or the first
// dial failed), so every channel on this QP dies.
func (mx *muxQP) exhausted(cause error) {
	if mx.state == linkDead {
		return
	} else if mx.state == linkDialing {
		cause = fmt.Errorf("xrdma: mux dial to %d:%d: %w", mx.peer, mx.port, cause)
	}
	mx.close()
	if mx.sched != nil {
		mx.sched.reset()
	}
	mx.c.logf("mux peer=%d beyond recovery (%d channels): %v", mx.peer, len(mx.chans), cause)
	for _, ch := range slices.Clone(mx.chans) { // a snapshot: each rider detaches as it dies
		ch.finishAttach(cause)
	}
	mx.release(mx.qp, nil)
	mx.qp = nil
}
