package xrdma

import (
	"errors"
	"fmt"

	"xrdma/internal/fabric"
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
// A shared QP is a link (link.go) with N riders instead of one, so the failure
// domain moves with the sharing. This file is what is particular to riding by
// cid: descriptors, admission, the per-peer pool, CHAN_OPEN/ACCEPT/CLOSE, demux.

// ErrMuxDisabled is returned when mux-only APIs run on a legacy context.
var ErrMuxDisabled = errors.New("xrdma: QP multiplexing not enabled (Config.QPsPerPeer == 0)")

// Channel attach states. The zero value means "established", so a rehydrated
// channel needs no setup.
const (
	attachDone    uint8 = iota // established; send path live
	attachLazy                 // descriptor only; first send triggers attach
	attachQueued               // waiting for an admission slot
	attachPending              // CHAN_OPEN in flight, or the link still establishing
)

// peerMux is the per-peer QP pool: at most Config.QPsPerPeer shared links,
// filled on demand and then assigned round-robin.
type peerMux struct {
	port  int
	slots []*link
	next  int
}

// sharedQPDepth is a shared QP's send-queue capacity: it must cover the sum
// of the attached channels' windows (queue storage grows lazily, so the
// generous cap is free until used).
const sharedQPDepth = 4096

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
	ch.cid, ch.muxPort = c.nextCID(), int32(port)
	for _, opt := range opts {
		if err := opt(ch); err != nil {
			return nil, err
		}
	}
	c.chanByCID.Put(uint64(ch.cid), ch)
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
	// Shed gate: while this channel's tenant is in a shed episode, new
	// attaches queue instead of establishing — graceful degradation reusing
	// the admission FIFO.
	shed := ch.shedGated()
	if lim := c.cfg.AttachAdmission; shed || lim > 0 && c.attachActive >= lim {
		ch.attach = attachQueued
		c.attachQ.Push(ch)
		if t := ch.tenant; shed && t != nil {
			t.AttachSheds++
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatTenantShed, int32(c.Node()), uint32(t.id), int64(ch.cid), shedEvAttach)
		}
		return
	}
	ch.startAttach()
}

func (ch *Channel) startAttach() {
	c := ch.ctx
	ch.attach = attachPending
	c.attachActive++
	l := c.muxFor(ch.Peer, int(ch.muxPort))
	ch.lk = l
	l.riders = append(l.riders, ch)
	if l.state == linkReady {
		l.sendChanOpen(ch) // otherwise setQP opens it once the QP is live
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
// shed episode ends, one for a freed slot.
// Heads whose shed gate has not lifted rotate to the tail and wait for the
// pass their episode's end triggers.
func (c *Context) attachAdmit(max int) {
	for scan := c.attachQ.Len(); scan > 0 && max > 0 && c.attachQ.Len() > 0; scan-- {
		if lim := c.cfg.AttachAdmission; lim > 0 && c.attachActive >= lim {
			return
		}
		next := c.attachQ.Pop()
		if next.closed || next.attach != attachQueued {
			continue
		}
		if next.shedGated() {
			c.attachQ.Push(next)
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
	held := ch.attach == attachPending && ch.lk.shared() && ch.lk.dialer // who passed admission: startAttach
	ch.attach = attachDone
	c.Stats.ChannelsOpened++
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
	done, cbs := ch.onConnect, ch.attachCBs
	ch.onConnect, ch.attachCBs = nil, nil
	if done != nil && err != nil {
		done(nil, err)
	} else if done != nil {
		done(ch, nil)
	}
	for _, cb := range cbs {
		cb(err)
	}
}

// muxFor picks (creating on demand) the shared link a new channel attaches
// to: fill the pool first, then round-robin, replacing dead slots.
func (c *Context) muxFor(peer fabric.NodeID, port int) *link {
	pm := c.mux[peer]
	if pm == nil {
		pm = &peerMux{port: port}
		c.mux[peer] = pm
	}
	i := len(pm.slots)
	if i < c.cfg.QPsPerPeer {
		pm.slots = append(pm.slots, nil)
	} else {
		i = pm.next % len(pm.slots)
		pm.next++
	}
	if l := pm.slots[i]; l == nil || l.state == linkDead {
		l = c.newSharedLink(peer, pm.port, true)
		pm.slots[i] = l
		l.establish(nil, pm.port, c.dialHello(hello{purpose: helloMuxSlot, slot: uint16(i)}), nil)
	}
	return pm.slots[i]
}

// rider resolves the channel an inbound header's Chan field names; a cid
// that rides another QP (or none) names nothing here.
func (l *link) rider(cid uint32) *Channel {
	if ch := l.c.chanByCID.Get(uint64(cid)); ch != nil && ch.lk == l {
		return ch
	}
	return nil
}

func (l *link) sendChanOpen(ch *Channel) {
	h := &wireHdr{Kind: kindChanOpen, Chan: ch.cid, MsgID: uint64(ch.muxPort)}
	if t := ch.tenant; t != nil {
		// The label rides the open so the passive side binds the tenant
		// before the first data frame arrives.
		h.Flags |= flagTenant
		h.Tenant = t.id
		h.TLabel = t.label
	}
	l.sendCtrl(h)
}

// --- inbound demux -----------------------------------------------------------

// demux is a shared link's inbound hand-off: mux-plane control frames are
// handled here, everything else demultiplexes to the owning channel by the
// header's Chan field (the receiver's cid).
func (l *link) demux(h *wireHdr, pay []byte, overMock bool, rxBlame *telemetry.PktBlame) {
	switch h.Kind {
	case kindChanOpen:
		l.handleChanOpen(h)
	case kindChanAccept:
		l.handleChanAccept(h)
	case kindChanClose:
		if ch := l.rider(h.Chan); ch != nil {
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
		if l.dialer {
			l.fail(fmt.Errorf("xrdma: peer reported shared QP sick"))
		}
	default:
		if ch := l.rider(h.Chan); ch != nil {
			ch.handleWire(h, pay, overMock, rxBlame)
		}
	}
}

// handleChanOpen creates the passive half of a muxed channel. The peer's
// cid keys the dedup: a replayed open (lost accept across a mux
// recovery) only re-sends the accept.
func (l *link) handleChanOpen(h *wireHdr) {
	c := l.c
	if lcid, dup := l.peerCIDs[h.Chan]; dup {
		l.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(lcid)})
		return
	}
	if c.drain != DrainServing {
		// New channel over an existing shared QP is still new work: close
		// it back so the dialer's attach fails with ErrDraining instead of
		// hanging until the restart.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), l.qp.QPN, int64(h.Chan), drainEvRefusal)
		l.sendCtrl(&wireHdr{Kind: kindChanClose, Chan: h.Chan})
		return
	}
	ch := c.newChannel(l.peer, attachPending)
	ch.cid, ch.peerCID, ch.lk, ch.muxPort = c.nextCID(), h.Chan, l, int32(h.MsgID)
	if h.Flags&flagTenant != 0 && len(c.tenants) > 0 {
		ch.tenant = c.resolveTenant(h)
	}
	c.chanByCID.Put(uint64(ch.cid), ch)
	l.riders = append(l.riders, ch)
	l.peerCIDs[ch.peerCID] = ch.cid
	ch.finishAttach(nil) // it opens here and now, like every other rider
	l.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(ch.cid)})
	if c.onChannel != nil {
		c.onChannel(ch)
	}
}

func (l *link) handleChanAccept(h *wireHdr) {
	ch := l.c.chanByCID.Get(uint64(h.Chan))
	if ch == nil || ch.closed || ch.attach == attachDone {
		return
	}
	ch.peerCID = uint32(h.MsgID)
	l.peerCIDs[ch.peerCID] = ch.cid
	ch.finishAttach(nil)
}
