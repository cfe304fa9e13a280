package xrdma

import (
	"errors"
	"fmt"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
)

// link is the QP holder and failure domain under one or more channels:
// keepalive (§V-A), the path doctor, health recovery and the Mock fallback
// (§VI-C) are properties of the QP, not of what rides it, so they live
// here once, and the link owns its riders: an exclusive channel is a link
// with one rider, a shared (mux) QP a link with N. What differs between the
// two is decided below from facts the link holds — shared or not, SRQ or
// not, port, dialer. When the transport breaks the link degrades, every
// established rider is held, and — with a recovery port — the dialing side
// re-establishes under a bounded budget while the other side waits out a
// grace. The replacement is adopted on both sides and every rider replays
// its unacked window tail; the seq-ack window of Algorithm 1 dedups the
// overlap, so the cutover is exactly-once per rider in both directions.
//
//	dialing ──► ready ──fail──► degraded ◄──dial failed── (redial in flight: riders show Recovering)
//	   │          ▲                │ └──────backoff──────────▲
//	   │          └─────adopt──────┤ (either side)
//	   └─refused─► giveUp ◄────────┘ budget/grace spent
//	                                    (one established rider + Mock: fallback; otherwise dead)
//	fallback ──failback probe adopted──► ready
type linkState uint8

const (
	linkDialing  linkState = iota // first establishment in flight: no QP yet, riders wait
	linkReady                     // riders run on qp
	linkDegraded                  // transport lost; riders held, a replacement awaited or being dialed
	linkFallback                  // exclusive only: the rider runs on the TCP Mock transport
	linkDead
)

type link struct {
	c *Context
	// riders are the channels on the link in attach order (== ascending cid):
	// walk them by index, or snapshot before a walk that closes them. solo
	// backs an exclusive link's one rider, so a connect allocates no slice;
	// peerCIDs (peer cid → local cid, the CHAN_OPEN dedup) is non-nil iff shared.
	riders   []*Channel
	solo     [1]*Channel
	peerCIDs map[uint32]uint32
	peer     fabric.NodeID

	// Fixed at construction (newEnd, newSharedLink).
	port        int          // where a replacement is dialed and accepted (<= 0: no re-establishment)
	dialer      bool         // this side redials: the lower node id (exclusive) or the initiator (shared)
	redial      helloPurpose // helloRecover or helloMuxReattach
	depth       int          // queue depth of a created replacement QP
	dialTimeout sim.Duration // abandons one dial that got no REP/REJ

	qp       *rnic.QP // the QP the link owns: nil while dialing, on the fallback and once closed
	peerQPN  uint32   // peer's latest QPN — what a redial names
	peerQPN0 uint32   // peer's QPN at establishment — with qpn0, the immutable identity
	qpn0     uint32   // local QPN at establishment (0 = none yet)

	// The transport material besides the QP: the standing receive pool
	// posted on it (nil when the SRQ serves; see release for who frees it),
	// the Mock conn while state is linkFallback (nil = not connected), and
	// the DRR arbiter of a tenanted shared SQ.
	pool  *recvPool
	fb    *tcpnet.Conn
	sched *sqSched

	state      linkState
	epoch      uint64 // invalidates stale timers; turn() cancels the dial with it
	attempts   int
	degradedAt sim.Time

	dialing *estab // the establishment whose CM dial is in flight (nil = none)

	lastComm  sim.Time
	kaProbeAt sim.Time
	kaProbing bool

	// The header version and capability set every rider inherits (0/0 =
	// legacy v1 + baselineCaps): the hello runs once per transport.
	ver  uint8
	caps uint32

	// One path, one scorer: a shared QP's counters aggregate every rider's
	// symptoms, and the flow-label cure must run once per QP.
	doctor pathDoctor
}

// newEnd builds an exclusive connection end, the Channel the application
// holds and the link under it, as one object: the channel's lk is set here
// and never replaced, and the handle pinned the link already. The link is
// dialing (Connect, accept) and off the scan list until its first QP, or,
// rehydrated, degraded. The lower node id redials, through Options.RecoverPort.
func (c *Context) newEnd(peer fabric.NodeID, attach uint8, state linkState) *link {
	e := &struct {
		ch Channel
		l  link
	}{
		ch: Channel{ctx: c, Peer: peer, attach: attach, lastProgress: c.eng.Now()},
		l: link{
			c: c, peer: peer, state: state,
			port: c.recoverPort, dialer: c.Node() < peer, redial: helloRecover,
			depth:       2*c.cfg.WindowDepth + ctrlReserve + c.cfg.MaxOutstandingWRs + 8,
			dialTimeout: c.cfg.RecoverDialTimeout,
			lastComm:    c.eng.Now(),
		},
	}
	ch, l := &e.ch, &e.l
	l.solo[0], l.riders, ch.lk = ch, l.solo[:], l
	if state == linkDialing {
		c.dialing = append(c.dialing, l)
	} else {
		c.links = append(c.links, l)
	}
	if c.onEnd != nil {
		c.onEnd(l)
	}
	return l
}

// newSharedLink builds a shared QP's link, dialing — and listed from birth:
// riders attach while it dials. The establishment port is also the reattach
// rendezvous, and only the initiator has a dial route to it. Both sides pay
// the full QP create+modify command cost inside the dial window (release: a
// shared QP is never recycled), which the configured timeout alone would miss.
func (c *Context) newSharedLink(peer fabric.NodeID, port int, dialer bool) *link {
	l := &link{
		c: c, peerCIDs: make(map[uint32]uint32), peer: peer, state: linkDialing,
		port: port, dialer: dialer, redial: helloMuxReattach, depth: sharedQPDepth,
		dialTimeout: c.cfg.RecoverDialTimeout + 2*rnic.QPCreateCost + 8*rnic.QPModifyCost,
	}
	if len(c.cfg.Tenants) > 0 {
		// Weighted DRR at the shared SQ, so the pool honors tenant weights
		// instead of FIFO head-of-line; zero-tenant configs keep the direct
		// post path bit-for-bit.
		l.sched = newSQSched(c)
	}
	c.links = append(c.links, l)
	return l
}

// shared: riders are multiplexed by cid. An exclusive link has exactly one.
func (l *link) shared() bool { return l.peerCIDs != nil }

// setQP makes qp the link's transport — its first, or a replacement: the
// context's QPN table (the only map keyed by local QPN) moves the link from
// its previous QPN to this one, the health state starts clean, the receive
// pool is posted and every rider still attachPending opens now.
func (l *link) setQP(qp *rnic.QP, pool *recvPool, initiator bool) {
	c := l.c
	l.untable()
	l.qp, l.peerQPN = qp, qp.RemoteQPN
	c.qpnTab.Put(uint64(qp.QPN), l)
	if i := slices.Index(c.dialing, l); i >= 0 {
		// An exclusive link takes its place in the scan list with its first QP.
		c.dialing = slices.Delete(c.dialing, i, i+1)
		c.links = append(c.links, l)
	}
	if l.qpn0 == 0 { // the establishment pair: the identity a redial or a Mock hello names
		l.qpn0, l.peerQPN0 = qp.QPN, qp.RemoteQPN
	}
	l.state = linkReady
	l.turn()
	l.attempts = 0
	l.kaProbing = false
	l.lastComm = c.eng.Now()
	// The QP starts with zero counters and a full rotation budget; the
	// doctor must not blame it for an old path's symptoms.
	l.doctor.resetEpisode()
	l.sched.reset()
	// The standing receive pool — the buffers whose footprint the §III Issue-1
	// formula describes — goes on the QP, and is the QP's from here on.
	if l.pool = pool; pool != nil {
		for k := range pool.blocks { // one run a block; one that has not landed is none, refused
			_ = qp.PostRecvRun(pool.run(k))
		}
	}
	for i := 0; i < len(l.riders); i++ { // in place: a Connect callback may close its channel
		switch ch := l.riders[i]; {
		case ch.attach == attachPending && l.shared():
			// Again after a recovery that swallowed the first; only the dialing
			// side ever has riders waiting.
			l.sendChanOpen(ch)
		case ch.attach == attachPending:
			// The CM exchange was the open: Connect hears, and on the accepting
			// side the application meets the channel.
			ch.lastProgress = c.eng.Now()
			ch.finishAttach(nil)
			if !initiator && c.onChannel != nil {
				c.onChannel(ch)
			}
		}
	}
}

// untable drops the link's table entry, unless a sibling that recycled the
// QP out of the cache owns the QPN by now.
func (l *link) untable() {
	if l.qp != nil && l.c.qpnTab.Get(uint64(l.qp.QPN)) == l {
		l.c.qpnTab.Delete(uint64(l.qp.QPN))
	}
}

// close is terminal: timers are stranded, a dial in flight is cancelled, and
// the link leaves the QPN table and whichever list holds it.
func (l *link) close() {
	c := l.c
	l.state = linkDead
	l.turn()
	l.untable()
	for _, list := range []*[]*link{&c.links, &c.dialing} {
		if i := slices.Index(*list, l); i >= 0 {
			*list = slices.Delete(*list, i, i+1)
		}
	}
}

// turn opens a new epoch: timers armed under the old one go stale, and a
// dial still in flight is cancelled — the CM hands back a recycled QP
// (destroying one it created) and the material goes back.
func (l *link) turn() {
	l.epoch++
	if e := l.dialing; e != nil {
		l.dialing = nil
		l.release(l.c.cm.Cancel(e.dial), e.rp)
		e.let(false, false)
	}
}

// current reports whether a completion belongs to the link's present QP. A
// QP surrendered at adoption flushes its in-flight WRs afterwards; those
// completions are stale news and must not fail the fresh transport.
func (l *link) current(cqe *rnic.CQE) bool {
	return l.state != linkDead && l.qp != nil && cqe.QPN == l.qp.QPN
}

// identity is the hello that names the link to its peer: a redial's or a Mock rendezvous'.
func (l *link) identity(p helloPurpose) hello {
	return hello{purpose: p, target: l.peerQPN, target0: l.peerQPN0, dialer0: l.qpn0}
}

// is reports whether this link IS the one a peer's redial or Mock hello means:
// the establishment-time QPN pair matches in both directions. A Mock hello
// names an exclusive link.
func (l *link) is(from fabric.NodeID, h hello) bool {
	return l.peer == from && (l.redial == h.purpose || h.purpose == helloMock && !l.shared()) &&
		l.qpn0 != 0 && l.qpn0 == h.target0 && l.peerQPN0 == h.dialer0
}

// named is the one lookup of the link a peer's hello names: the QPN table by
// target, else a scan, accepted only where the identity matches (is). The
// target may be adoptions (or a restart) old, or recycled to a sibling since,
// and a link on the fallback holds no QPN at all.
func (c *Context) named(from fabric.NodeID, h hello) *link {
	if l := c.qpnTab.Get(uint64(h.target)); l != nil && l.is(from, h) {
		return l
	}
	if i := slices.IndexFunc(c.links, func(l *link) bool { return l.is(from, h) }); i >= 0 {
		return c.links[i]
	}
	return nil
}

// established lists the riders with a live send path — the ones to hold on
// failure and replay on adoption. A rider still waiting for its
// CHAN_ACCEPT has nothing in flight; setQP re-opens it on adoption.
func (l *link) established() (rs []*Channel) {
	for _, ch := range l.riders {
		if ch.attach == attachDone {
			rs = append(rs, ch)
		}
	}
	return rs
}

func (l *link) setHealth(h HealthState) {
	for _, ch := range l.established() {
		ch.setHealth(h)
	}
}

// --- frame path ----------------------------------------------------------------
//
// Everything that puts a wire frame on, or takes one off, a transport is
// below: recv/ingest hold the only decodeHdr call, emit the only encode.

// recv is the one ingress for receive completions (Context.dispatch is
// a table lookup in front of it).
func (l *link) recv(cqe *rnic.CQE) {
	c := l.c
	if !l.current(cqe) {
		// The flush of a QP this link surrendered to a sibling through the QP cache.
		c.recycleSRQ(cqe.WRID)
		return
	}
	if cqe.Status != rnic.StatusOK {
		l.repost(cqe.WRID)
		l.fail(fmt.Errorf("xrdma: recv completion error: %v", cqe.Status))
		return
	}
	l.lastComm = c.eng.Now()
	if cqe.Op == rnic.OpWriteImm {
		// One-sided WRITE+imm: the payload was DMA'd straight into the
		// target window, so the receive buffer holds application bytes at
		// best and must never reach the parser. The immediate cannot name a
		// rider; only an exclusive link has exactly one to wake.
		l.repost(cqe.WRID)
		if l.shared() {
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatIntegrity, int32(c.Node()), cqe.QPN, integrityImmShared, int64(l.peer))
		} else if ch := l.riders[0]; ch.onWriteImm != nil {
			ch.onWriteImm(cqe.Imm, cqe.Addr, cqe.Len)
		}
		return
	}
	l.ingest(cqe.Data, cqe.WRID, false, cqe.Blame)
}

// CatIntegrity codes, what this node could not trust: a record's A, so a
// timeline names it. B is the peer, or the buffer's address.
const (
	integrityDecode    = 1 + iota // an inbound frame that does not decode
	integrityKind                 // a frame of a kind this build does not know
	integrityImmShared            // a WRITE+imm on a shared QP: no rider to name
	integrityCanary               // a freed buffer whose canaries were overwritten
)

// ingest decodes one inbound frame — an RDMA receive or a Mock TCP message
// — and hands header, inline payload (nil when none is carried), transport
// and the in-band fabric accumulator of a blame-traced message to the one rider
// or the shared demux: two static calls, so the header stays on this stack.
func (l *link) ingest(data []byte, wrID uint64, overMock bool, rxBlame *telemetry.PktBlame) {
	c := l.c
	if l.state == linkDead {
		// A Mock conn the passive arm of adopt left draining can outlive the
		// channel; RDMA completions of a dead link never get here.
		return
	}
	h, hdrLen, err := decodeHdr(data)
	if !overMock {
		l.repost(wrID)
	}
	if err != nil {
		if errors.Is(err, errVersion) {
			// A frame from a release outside our version range: counted as
			// an upgrade-plane event, not lumped in with corruption.
			c.noteVerMismatch(l.peer, l.qpn0, data[2], data[2])
		} else {
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatIntegrity, int32(c.Node()), l.qpn0, integrityDecode, int64(l.peer))
		}
		return
	}
	var pay []byte // nil unless the payload was carried: a size-only message's is not
	if size := int(h.Size); size > 0 && len(data) >= hdrLen+size {
		pay = data[hdrLen : hdrLen+size]
	}
	if l.shared() {
		l.demux(&h, pay, overMock, rxBlame)
	} else {
		l.riders[0].handleWire(&h, pay, overMock, rxBlame)
	}
}

// repost returns one consumed receive buffer to the RQ (and slot) its WR id names.
func (l *link) repost(wrID uint64) {
	if wr, ok := l.pool.wr(wrID); ok {
		_ = l.qp.PostRecv(wr) // refused only by a broken QP (ERROR, RESET): it receives nothing, the slot waits
	} else {
		l.c.recycleSRQ(wrID)
	}
}

// closeFallback hangs up the Mock conn without waking its close handler.
func (l *link) closeFallback() {
	if conn := l.fb; conn != nil {
		l.fb = nil
		conn.OnClose = nil
		conn.Close()
	}
}

// emit is the one egress: it encodes h in front of rec's payload (inline
// unless the message goes by rendezvous) and hands the frame to whatever
// carries the link — the Mock conn on the fallback, otherwise the QP (windowed
// kinds behind the DRR arbiter on a tenanted shared SQ). Callers gate on path
// state; emit does not. wireLen is the frame's size on the RDMA wire (a
// size-only payload counts uncarried). Context.complete hears the RNIC's
// verdict: a failed completion on the current QP fails the link.
func (l *link) emit(rec *msgRec, h *wireHdr, wireLen int, blame *telemetry.PktBlame) {
	hb, end := h.wireBytes(), frameHeadroom
	if !rec.large {
		end = len(rec.buf)
	}
	frame := rec.buf[frameHeadroom-hb : end]
	clear(frame[:hb]) // the pad bytes encode skips held another life's header
	h.encode(frame)
	if l.state == linkFallback {
		// tcpnet's segments alias what they are given until they land: it gets
		// a copy to keep, and a control frame's record is done.
		l.fb.Send(slices.Clone(frame), 0, nil)
		l.c.drop(rec, 0)
		return
	}
	rec.wr = rnic.SendWR{Op: rnic.OpSend, Len: wireLen, Data: frame, Blame: blame}
	rec.lk, rec.qp = l, l.qp
	l.lastComm = l.c.eng.Now()
	if l.sched != nil && h.Kind.windowed() {
		l.sched.submit(rec)
	} else {
		l.c.flow.post(rec)
	}
}

// emitCtrl emits a window-exempt frame: a control frame is a header.
func (l *link) emitCtrl(ch *Channel, h *wireHdr) {
	rec := l.c.newRec(recFrame, ch)
	rec.setPayload(nil, 0)
	l.emit(rec, h, h.wireBytes(), nil)
}

// sendCtrl emits a link-level control frame (CHAN_OPEN/ACCEPT/CLOSE) if the
// QP is up; these are advisory and re-sent by the protocol above.
func (l *link) sendCtrl(h *wireHdr) {
	if l.state == linkReady {
		l.emitCtrl(nil, h)
	}
}

// --- keepalive (§V-A) ---------------------------------------------------------

// keepalive probes the QP with a zero-byte RDMA write — acked by the peer
// RNIC without waking its application or touching RDMA-enabled memory. One
// probe covers every rider, so the probe load is O(QPs), not O(channels).
func (l *link) keepalive(now sim.Time) {
	if l.state != linkReady {
		return
	}
	c := l.c
	if l.kaProbing {
		// The probe is a reliable RC write: its failure (retry exhaustion)
		// arrives through the completion below, so the wall-clock backstop
		// must sit above the RC retry horizon — declaring death while the
		// NIC is still legitimately retransmitting would turn every loss
		// burst into a false positive.
		nicCfg := &c.vctx.NIC.Cfg
		deadline := max(sim.Duration(nicCfg.RetryLimit+2)*nicCfg.RetransTimeout, c.cfg.KeepaliveTimeout)
		if now.Sub(l.kaProbeAt) > deadline {
			l.keepaliveDead(now)
		}
		return
	}
	if now.Sub(l.lastComm) < c.cfg.KeepaliveInterval {
		return
	}
	l.kaProbing = true
	l.kaProbeAt = now
	c.Stats.KeepaliveProbes++
	c.tel.Flight.Record(now, telemetry.CatKeepaliveProbe, int32(c.Node()), l.qp.QPN, int64(l.peer), 0)
	rec := c.newRec(recProbe, nil)
	rec.lk, rec.qp = l, l.qp
	rec.wr = rnic.SendWR{Op: rnic.OpWrite}
	c.flow.post(rec)
}

func (l *link) keepaliveDead(now sim.Time) {
	c := l.c
	c.Stats.KeepaliveFails++
	c.tel.Flight.Trip(now, telemetry.CatKeepaliveFail, int32(c.Node()), l.qp.QPN)
	l.fail(ErrPeerDead)
}

// --- path doctor --------------------------------------------------------------

// pathScan runs one gray-failure scoring pass over the QP's counters. At
// most one flow-label rotation per scan covers every rider; escalation
// hands the link to the recovery machine below.
func (l *link) pathScan(now sim.Time) {
	if l.qp == nil {
		return
	}
	c, d := l.c, &l.doctor
	retx := l.qp.Counters.Retransmits
	rnr := l.qp.Counters.RNRNakRecv
	corrupt := l.qp.Counters.CorruptDrops
	if l.state != linkReady || !d.inited {
		// Not the doctor's jurisdiction (or its first look at this QP):
		// keep the watermarks fresh so recovery traffic isn't blamed.
		d.resync(retx, rnr, corrupt)
		return
	}
	if d.scoreScan(retx, rnr, corrupt) {
		v := d.verdict
		c.tel.Flight.Record(now, telemetry.CatPathVerdict, int32(c.Node()), l.qp.QPN, int64(v), int64(d.score*100))
		d.log = append(d.log, fmt.Sprintf("t=%v node=%d path=%v score=%d", now, c.Node(), v, int64(d.score*100)))
		for i := 0; i < len(l.riders); i++ { // in place: an observer may close its channel
			if ch := l.riders[i]; ch.onPathVerdict != nil {
				ch.onPathVerdict(v)
			}
		}
	}
	switch d.verdict {
	case PathClean:
		d.sickScans = 0
		if d.rotations > 0 {
			d.cleanScans++
			if d.cleanScans >= pdCleanScansToForgive {
				d.rotations = 0
				d.cleanScans = 0
			}
		}
	case PathSuspect:
		d.cleanScans = 0
	case PathSick:
		d.cleanScans = 0
		d.maybeHint(c, now, l.established())
		d.rotateOrEscalate(c, l.qp.QPN, now, l.fail)
	}
}

// --- degrade → redial → adopt -------------------------------------------------

// recoverGrace bounds how long the waiting side stays degraded: the full
// dial budget worth of timeouts and backoffs on top of the mock grace, so
// both sides converge on the same outcome.
func (c *Context) recoverGrace() sim.Duration {
	return c.mockGrace() +
		recoverRetries*(c.cfg.RecoverDialTimeout+recoverBackoffMax)
}

// recoverBackoff is the delay before dial attempt n (0-based): from
// recoverBackoffBase, doubling up to recoverBackoffMax, with ±25% jitter to
// decorrelate fleet-wide retry storms after a shared fault (a downed switch
// degrades many links at once). attempt < recoverRetries, so the shift
// cannot overflow.
func (c *Context) recoverBackoff(attempt int) sim.Duration {
	d := min(recoverBackoffBase<<uint(attempt), recoverBackoffMax)
	return d - d/4 + sim.Duration(c.rng.Float64()*float64(d)/2)
}

// fail reports that the link's transport broke (flushed QP, keepalive
// death, NIC restart, doctor escalation). The broken QP stays the link's until
// a replacement is adopted or the Mock switch gives it back.
func (l *link) fail(cause error) {
	c := l.c
	switch {
	case l.state == linkDialing, l.state == linkReady && l.port <= 0:
		l.giveUp(cause)
		return
	case l.state != linkReady:
		// Already degraded, on the fallback, or dead: the machinery below
		// owns the link and further flushed completions carry no news.
		return
	}
	now := c.eng.Now()
	// The state flips first, so the frame posted next on the broken QP cannot
	// re-enter here when it flushes on the spot.
	l.state, l.degradedAt, l.attempts, l.kaProbing = linkDegraded, now, 0, false
	l.turn()
	if l.shared() && !l.dialer {
		// Only the initiator has a dial route to a shared QP: ask it to redial.
		// A QP the path doctor declared sick is still in RTS and carries this;
		// on a broken one the post just flushes and the initiator's keepalive
		// finds out on its own.
		l.emitCtrl(nil, &wireHdr{Kind: kindMuxSick})
	}
	// Queued unposted frames drop here; requeueUnacked replays them through
	// the scheduler after adoption.
	l.sched.reset()
	c.Stats.Degraded++
	c.tel.Flight.Trip(now, telemetry.CatChannelDegraded, int32(c.Node()), l.qp.QPN)
	for _, ch := range l.established() {
		ch.park()
	}
	l.reestablish(cause)
}

// reestablish starts a degraded link toward a replacement transport: the
// dialer redials, the other side waits for it, bounded.
func (l *link) reestablish(cause error) {
	if l.dialer {
		l.scheduleDial(cause)
		return
	}
	epoch := l.epoch
	l.c.eng.AfterBg(l.c.recoverGrace(), func() {
		if l.epoch == epoch {
			l.giveUp(cause)
		}
	})
}

// scheduleDial arms the next replacement dial — timer → still current? → NIC
// alive? → dialReplacement → re-arm — under one of two policies. A degraded
// link redials on a budget: exponential backoff, giveUp once recoverRetries
// are spent, riders held throughout. A link on the Mock fallback (§VI-C: meant
// to be temporary) probes on a cadence, dialing side only, no budget; messages
// keep flowing over TCP and the window dedups the cutover if it succeeds.
// Either way one arming draws exactly one c.rng.Float64().
func (l *link) scheduleDial(cause error) {
	c := l.c
	probe, rest, delay := l.state == linkFallback, HealthDegraded, sim.Duration(0)
	switch {
	case probe && (l.port <= 0 || !l.dialer):
		return
	case probe:
		rest, delay = HealthFallback, failbackEvery
		delay += sim.Duration(c.rng.Float64() * float64(delay) / 4)
	case l.attempts >= recoverRetries:
		l.giveUp(cause)
		return
	default:
		delay = c.recoverBackoff(l.attempts)
	}
	epoch := l.epoch
	c.eng.AfterBg(delay, func() {
		if l.epoch != epoch || probe && l.fb == nil {
			return
		}
		l.attempts++
		if !c.vctx.NIC.Alive() {
			// The local machine itself is down; a restart revives the NIC.
			l.scheduleDial(cause)
			return
		}
		l.setHealth(HealthRecovering)
		l.dialReplacement(func(error) {
			l.setHealth(rest)
			if probe && l.fb == nil {
				// The fallback died while we probed; re-run its rendezvous.
				l.riders[0].connectMock(fmt.Errorf("mock lost during failback probe"))
				return
			}
			l.scheduleDial(cause)
		})
	})
}

// giveUp is the one way out when no replacement is coming: the link never
// came up, has no recovery port, spent its retry budget (dialer) or grace
// (waiter), or the context is closing.
func (l *link) giveUp(cause error) {
	c := l.c
	switch {
	case l.state == linkDead, l.state == linkFallback:
		return
	case l.shared():
		if l.state == linkDialing {
			cause = fmt.Errorf("xrdma: mux dial to %d:%d: %w", l.peer, l.port, cause)
		}
	case l.riders[0].attach == attachPending:
		// A first establishment that failed, of a channel the application never
		// saw: dropped, not counted closed or broken; whoever waited hears why.
		ch := l.riders[0]
		ch.closed = true
		l.close()
		ch.attachSettled(cause)
		return
	case c.cfg.MockEnabled && c.tcp != nil && c.mockPort > 0:
		// One established rider and a Mock plane: degrade onto TCP, don't die.
		l.riders[0].enterMockMode()
		l.riders[0].connectMock(cause)
		return
	}
	// The link is the unit of fate: every rider dies with it, hearing the cause.
	l.close()
	l.sched.reset()
	c.tel.Flight.Record(c.eng.Now(), telemetry.CatLinkLost, int32(c.Node()), l.qpn0, int64(l.peer), int64(len(l.riders)))
	for _, ch := range slices.Clone(l.riders) { // a snapshot: each rider detaches as it dies
		ch.finishAttach(cause)
	}
	if l.shared() {
		// (An exclusive link's material went back as its rider left: detach.)
		l.giveBack()
	}
}

// detach takes a closing rider off the link. A shared rider says CHAN_CLOSE
// (unless it never opened, or the peer closed first — the close would echo
// forever), leaves the cid tables and frees the admission slot a pending
// attach held; the link stays for the next attach. The rider of an exclusive
// link takes the link with it — closed now, stranding any dial in flight —
// and its material goes back: the Mock conn, and the QP with its pool (none on
// the fallback: the Mock switch gave them back).
func (l *link) detach(ch *Channel) {
	if l.shared() && ch.attach == attachDone && !ch.peerClosed {
		l.sendCtrl(&wireHdr{Kind: kindChanClose, Chan: ch.peerCID})
	}
	if i := slices.Index(l.riders, ch); i >= 0 {
		l.riders = slices.Delete(l.riders, i, i+1)
	}
	if l.shared() {
		delete(l.peerCIDs, ch.peerCID)
		if ch.attach == attachPending {
			ch.attach = attachLazy
			l.c.attachRelease()
		}
		return
	}
	l.close()
	l.closeFallback()
	l.giveBack() // the cache's now: the next connection may hold the QP
}

// release returns transport material that will not be adopted, or that an
// adoption just replaced. The QP cache is per-channel: a shared QP —
// sharedQPDepth deep and SRQ-bound, unable to post per-channel receives — never
// enters it and is destroyed instead.
//
// Who owns receive memory: a pool belongs to the QP it is posted on, and this
// is the only code that frees one — after QPs.Put has RESET that QP (or
// destroyed it), so nothing the RNIC can still DMA into is on a free list. A
// degraded link keeps its pool, unusable, until adopt or the rider's detach
// gives up the broken QP; a region a NIC restart killed makes the free a no-op.
func (l *link) release(qp *rnic.QP, pool *recvPool) {
	if !l.shared() {
		l.c.QPs.Put(qp)
	} else if qp != nil {
		l.c.vctx.NIC.DestroyQP(qp)
	}
	if pool != nil {
		for _, b := range pool.blocks { // in block order: what a free wakes is the same in every run
			l.c.Mem.Free(b)
		}
		if e, ok := pool.owner.(*estab); ok && e.kept { // a link's pool: its estab may go
			e.let(e.busy, false)
		}
	}
}

// takePool detaches the installed pool, to be released with the QP it is on.
func (l *link) takePool() (p *recvPool) { p, l.pool = l.pool, nil; return p }

// giveBack releases the link's QP and pool and leaves it holding none: a link
// holds only the QP it owns.
func (l *link) giveBack() { l.untable(); l.release(l.qp, l.takePool()); l.qp = nil }

// --- establishment --------------------------------------------------------------
//
// Every transport a link carries arrives through establish, a dial (active)
// or an accept (passive), one estab each — the only cm.Connect and the only
// req.Accept. Both gather the material, establish, and install: setQP for the
// first transport, adopt for a replacement. Material not installed goes back
// through release.

// estab is one establishment in flight, a dial or the accept of req, as a
// step machine: gather the material — a standing receive pool, carved in
// place, iff the context has no SRQ (a shared link only exists with one); a
// recycled QP iff the link is exclusive (see release) — then the CM exchange,
// then install it or give it back. It is recycled through Context.estabs once
// the exchange is over (busy) and its pool is no link's (kept).
type estab struct {
	l          *link
	epoch      uint64 // a dial's link epoch at its start: its material goes back once stale
	port       int
	pd         []byte
	retry      func(error)
	req        *verbs.ConnReq
	dial       *verbs.Dial // the CM handle while l.dialing is this
	qp         *rnic.QP
	rp         *recvPool // &pool, or nil when the SRQ serves
	pool       recvPool
	doneFn     func(*verbs.Conn, error) // done, bound once
	busy, kept bool
}

// let sets what still holds e and recycles it once nothing does: the exchange
// ends in material, done or turn's cancel; a kept pool goes in release.
func (e *estab) let(busy, kept bool) {
	if e.busy, e.kept = busy, kept; !busy && !kept {
		c := e.l.c
		*e = estab{doneFn: e.doneFn}
		c.estabs.Put(e)
	}
}

// establish dials (l.peer, port) with pd as the CM private data, the link
// turned first, or, given req, answers it. A refusal (a drain REJ as
// ErrDraining) fails a first dial's link and goes to retry for a replacement,
// as does its timeout. First dials have no deadline: a connection storm (Fig.
// 8) legitimately queues in the NIC command queues for longer than
// RecoverDialTimeout. The pool's allocation overlaps the much slower handshake.
func (l *link) establish(req *verbs.ConnReq, port int, pd []byte, retry func(error)) {
	c := l.c
	if req == nil {
		l.turn()
	}
	e := c.estabs.Take(func() (e *estab) { e = new(estab); e.doneFn = e.done; return e })
	e.l, e.epoch, e.port, e.pd, e.retry, e.req, e.busy = l, l.epoch, port, pd, retry, req, true
	if c.srq != nil {
		e.material(nil)
		return
	}
	c.Mem.carve(&e.pool, c.cfg.WindowDepth+ctrlReserve, c.recvBufSize(), false, e)
}

// poolLanded moves on once the pool's last block is in place.
func (e *estab) poolLanded(p *recvPool, _, _ int) {
	if p.pending == 0 {
		e.material(p)
	}
}

// material takes a recycled QP beside the pool and dials, or answers the
// request — on a QP created through the slow hardware path when none was.
func (e *estab) material(pool *recvPool) {
	l, c := e.l, e.l.c
	if e.rp = pool; !l.shared() {
		e.qp = c.QPs.Get() // a shared QP is never recycled: see release
	}
	switch {
	case e.req == nil && l.epoch != e.epoch:
		l.release(e.qp, pool)
		e.let(false, false)
	case e.req == nil:
		if l.state != linkDialing {
			epoch, retry := e.epoch, e.retry // e may serve another dial by then
			c.eng.AfterBg(l.dialTimeout, func() {
				if l.epoch == epoch && l.dialing != nil {
					l.turn()
					retry(errors.New("xrdma: dial timed out"))
				}
			})
		}
		l.dialing = e
		e.dial = c.cm.Connect(l.peer, e.port, e.pd, e.qp, l.depth, c.sendCQ, c.recvCQ, c.sharedRQ(), e.doneFn)
	case l.state == linkDead:
		l.release(e.qp, pool)
		e.req.Reject("link closed")
		e.let(false, false)
	case e.qp != nil:
		e.reply(e.qp)
	default:
		c.vctx.NIC.CreateQP(l.depth, l.depth, c.sendCQ, c.recvCQ, c.sharedRQ(), e.reply)
	}
}

func (e *estab) reply(qp *rnic.QP) {
	e.qp = qp
	e.req.Accept(qp, e.doneFn)
}

// done ends the CM exchange: the transport goes in — setQP for the first,
// adopt for a replacement — or the material goes back through release.
func (e *estab) done(conn *verbs.Conn, err error) {
	l, initiator := e.l, e.req == nil
	if initiator {
		l.dialing = nil
	}
	e.kept = err == nil && l.state != linkDead && e.rp != nil // the pool is the link's
	switch {
	case err != nil:
		// An accept has no retry, and no REJ to map; nor has a first dial
		// anything to retry: giveUp tells whoever waited why.
		l.release(e.qp, e.rp)
		if err = mapDialErr(err); e.retry == nil || l.state == linkDialing {
			l.fail(err)
		} else {
			e.retry(err)
		}
	case l.state == linkDead:
		l.release(e.qp, e.rp)
	case l.state != linkDialing:
		l.adopt(conn, e.rp, initiator)
	default:
		if initiator {
			l.adoptVerdict(conn.PeerData) // the acceptor's REP carries the settled negotiation verdict
		}
		l.setQP(conn.QP, e.rp, initiator)
	}
	e.let(false, e.kept)
}

// dialReplacement redials the peer's listener for a degraded (or
// fallen-back) link, which the hello names by identity.
func (l *link) dialReplacement(retry func(error)) {
	l.c.Stats.RecoverAttempts++
	l.establish(nil, l.port, l.identity(l.redial).encode(), retry)
}

// accept is the one CM listener, on application ports and RecoverPort alike:
// the hello's purpose finds or creates the link the dialer means.
func (c *Context) accept(req *verbs.ConnReq) {
	h, verdict := c.readHello(req.From, req.PrivateData)
	// No hello at all is a legacy v1 dialer opening a per-channel connection.
	fresh := verdict == helloNone || h.purpose == helloOpen || h.purpose == helloMuxSlot
	var l *link
	switch {
	case verdict == helloUnknown:
		req.Reject(errVersion.Error())
	case h.purpose == helloMock, (h.purpose == helloRecover) != (req.Port == c.recoverPort):
		req.Reject("hello purpose not served on this port")
	case h.purpose == helloMuxSlot && c.srq == nil:
		req.Reject("mux requires SRQ mode")
	case fresh && c.drain != DrainServing:
		// New work on a draining node (redials still serve in-flight
		// channels): counted, flight-logged, and named — the dialer's
		// mapDialErr turns this reason into ErrDraining.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), 0, int64(req.From), drainEvRefusal)
		req.Reject(drainRejectReason)
	case fresh:
		if ver, caps, ok := c.settle(req, h); ok {
			if h.purpose == helloMuxSlot {
				l = c.newSharedLink(req.From, req.Port, false)
			} else {
				l = c.newEnd(req.From, attachPending, linkDialing)
			}
			l.ver, l.caps = ver, caps
		}
	default:
		// A redial for a degraded (or fallen-back) link, named by identity: it
		// cannot cross-adopt another link's state.
		if l = c.named(req.From, h); l == nil {
			req.Reject("no such link")
		} else if l.state == linkReady {
			// The dialer noticed a fault this side hasn't seen yet (failure
			// detection is not synchronized); degrade first so adoption runs
			// from a consistent state.
			l.fail(errors.New("peer-initiated recovery"))
		}
	}
	if l != nil {
		// The passive half: receive buffers are allocated before the CM reply
		// goes out, so the dialer can never race ahead of the receive queue —
		// RNR-free from the very first message.
		l.establish(req, 0, nil, nil)
	}
}

// adopt installs a freshly established replacement: the broken QP (or the
// Mock conn) is surrendered and every established rider requeues its
// unacked tail for replay. The dialer's riders pump immediately behind a
// NOP beacon; the passive side's hold their replay until the beacon (or
// any RDMA traffic) proves the dialer's QP reached RTS, because sends
// posted earlier would race the dialer's RTR transition.
func (l *link) adopt(conn *verbs.Conn, pool *recvPool, initiator bool) {
	c := l.c
	now := c.eng.Now()
	failback := l.state == linkFallback
	outage := now.Sub(l.degradedAt)
	switch {
	case !failback:
		l.giveBack()
	case initiator:
		l.closeFallback()
	case l.fb != nil:
		// Keep draining the Mock conn until the dialer closes it — the
		// windowed dedup makes the overlap harmless.
		l.fb.OnClose = nil
		l.fb = nil
	}
	l.setQP(conn.QP, pool, initiator)
	c.Stats.Recoveries++
	if failback {
		c.Stats.Failbacks++
		c.tel.Flight.Record(now, telemetry.CatFailback, int32(c.Node()), l.qp.QPN, int64(l.peer), 0)
	} else {
		c.recHist.Observe(int64(outage))
		c.tel.Trace.Complete("link.outage", c.track, l.degradedAt, outage, int64(l.peer))
	}
	c.tel.Flight.Record(now, telemetry.CatChannelRecovered, int32(c.Node()), l.qp.QPN, int64(l.peer), int64(outage))
	for _, ch := range l.established() {
		ch.requeueUnacked()
		ch.nopAt, ch.lastProgress = 0, now
		ch.stall(false)
		ch.resumeOnRx = !initiator
		ch.setHealth(HealthHealthy)
		if initiator {
			ch.sendCtrl(kindNop) // beacon: our QP is RTS
			ch.pump()
		}
	}
}
