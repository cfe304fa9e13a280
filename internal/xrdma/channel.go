package xrdma

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Errors surfaced through channel callbacks.
var (
	ErrChannelClosed = errors.New("xrdma: channel closed")
	ErrPeerDead      = errors.New("xrdma: keepalive declared peer dead")
	ErrTimeout       = errors.New("xrdma: request timed out")
	ErrNICRestart    = errors.New("xrdma: local NIC restarted")
	// ErrDraining refuses work on a node that entered the drain lifecycle
	// (drain.go): new attaches and inbound establishment are rejected loudly
	// so callers park-and-retry against the restarted instance instead of
	// misreading the refusal as a fault.
	ErrDraining = errors.New("xrdma: context draining")
)

// HealthState is the channel's fault-tolerance state machine. Healthy
// runs on RDMA; Degraded has lost the RDMA path and holds traffic while
// re-establishment is attempted; Fallback runs on the TCP Mock
// transport; Recovering has a re-establishment (or failback) dial in
// flight. The seq-ack window of Algorithm 1 makes every cutover between
// transports exactly-once in both directions.
type HealthState uint8

const (
	HealthHealthy HealthState = iota
	HealthDegraded
	HealthFallback
	HealthRecovering
)

func (h HealthState) String() string {
	return [...]string{"healthy", "degraded", "fallback", "recovering"}[h]
}

// ChannelStats are per-channel counters (the netstat-like rows of
// XR-Stat, §VI-B).
type ChannelStats struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
	ReqsSent, RespsRecv  int64
	LargeSent, LargeRecv int64
	AcksSent, NopsSent   int64
	WindowStalls         int64
	SendQueuePeak        int
	Pings                int64

	// One-sided dataplane (onesided.go).
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	RemoteAccessErrs      int64
}

// Channel is an established X-RDMA connection (one QP pair plus the
// application-layer protocol state).
type Channel struct {
	ctx  *Context
	Peer fabric.NodeID

	// win is the seq-ack window (window.go); its slots are held while in use.
	win window

	sendQ   sim.List[msgRec, *msgRec] // unsent messages, in submission order
	pending map[uint64]*msgRec        // msgID → the record of a request or ping, awaiting its answer
	issued  sim.Ring[msgRec, *msgRec] // the same records, in issue order

	lastProgress sim.Time

	recvSinceAck int
	lastAckVal   uint64
	ackEv        sim.Event
	ackFn        func()   // ackEv's callback, bound on the first delayed ack
	nopAt        sim.Time // when the in-flight NOP was sent (0: none; re-arm deadline)

	onMessage func(*Msg)
	onClose   func(error)
	onConnect func(*Channel, error) // Connect's done, until the establishment settles

	// lk is the QP holder and failure domain this channel rides (link.go):
	// its own for an exclusive channel, the shared QP's when muxed, nil for
	// an unattached descriptor. Everything about the transport — the QP,
	// the receive pool, the Mock conn — is the link's. health is this
	// rider's view of the link state; resumeOnRx holds the passive side's
	// replay until the peer's replacement QP is live.
	lk       *link
	onHealth func(HealthState)

	// Gray-failure plane (pathdoctor.go): the verdict observer.
	onPathVerdict func(PathVerdict)

	// One-sided plane (onesided.go): windows the peer granted us, and the
	// observers.
	remoteWins  map[uint64]RemoteWindow
	onWindow    func(RemoteWindow)
	onWinRevoke func(uint64)
	onWriteImm  func(imm uint32, addr uint64, n int)

	// QP multiplexing (mux.go): cid is the context-unique channel id
	// (0 = exclusive legacy channel) and peerCID the peer's id for this
	// channel — what outbound headers carry in Chan (0 on an exclusive QP).
	// attach tracks the lazy-establishment state; onConnect, then attachCBs,
	// fire when it settles. peerClosed suppresses the CHAN_CLOSE echo when
	// the peer tore down first.
	attachCBs []func(error)
	cid       uint32
	peerCID   uint32
	muxPort   int32

	// Tenancy plane (tenant.go): the channel's tenant (nil = untenanted),
	// its contribution to the tenant's in-flight window partition (for
	// rewind reconciliation; it shares muxPort's word, as the flags below
	// share one: TestChannelStructBudget), and whether it is parked on the
	// tenant's waiter FIFO.
	tenantInflight int32
	tenant         *Tenant

	// The flags of the planes above, packed into one word
	// (TestChannelStructBudget). blameSuspect force-samples the next few
	// requests after a slow-op incident so the blame plane always has hop
	// logs for the tail.
	closed        bool
	stallFlag     bool
	health        HealthState
	resumeOnRx    bool
	attach        uint8
	peerClosed    bool
	tenantWaiting bool
	blameSuspect  uint8

	Counters ChannelStats
}

// unstage returns every staged rendezvous payload — of the unsent queue and
// of the transmitted-but-unacked tail a cutover would replay — to the cache.
func (ch *Channel) unstage() {
	for rec := ch.sendQ.Head(); rec != nil; rec = rec.next {
		rec.unstage(ch.ctx)
	}
	for _, s := range ch.win.slots {
		if s.rec != nil {
			s.rec.unstage(ch.ctx)
		}
	}
}

func (rec *msgRec) unstage(c *Context) {
	if rec.staged.Valid() {
		c.Mem.Free(rec.staged)
		rec.staged = Buffer{}
	}
	rec.ready, rec.staging = false, false
}

// reqBlame is the requester half of a blame trace: local timestamps, the
// WR whose lifecycle gives SQ-wait and serialization (and carries the in-band
// fabric accumulator), and the QP the request was posted on with its
// recovery-counter watermarks at transmit.
type reqBlame struct {
	enqAt, txAt    sim.Time
	wr             *rnic.SendWR
	qp             *rnic.QP
	rtoRef, rnrRef int64
}

// respEcho is the responder half: what the responder knows about the
// request's journey, mirrored back inside the response's blame extension.
type respEcho struct {
	reqQueue, reqPause sim.Duration
	ecn                int64
	reasm              sim.Duration
	recvAt             sim.Time
}

// msgBlame hangs off a delivered blame-traced message: the inbound fabric
// accumulator plus (responses only) the decoded remote stage mirror.
type msgBlame struct {
	rx                 *telemetry.PktBlame
	reqQueue, reqPause sim.Duration
	reasm, handler     sim.Duration
	ecn                int64
}

// Msg is a delivered message: a request to serve or a response to consume.
// Data is only valid during the handler — inline, it is the posted receive
// buffer itself, which the RNIC fills again after that; use Retain to keep it.
// A slice Retain kept in the Msg keeps the Msg, and through Ch its Channel, alive.
type Msg struct {
	Ch    *Channel
	Data  []byte
	Len   int
	MsgID uint64
	Seq   uint64

	// RecvAt is the local engine time the payload became available.
	RecvAt sim.Time
	// T1 is the sender's clock at send time (req-rsp mode only).
	T1 sim.Time

	// blame is non-nil when the message carried the blame bit end-to-end
	// (causal trace plane); requests use it to seed the response mirror.
	blame *msgBlame

	own                          [64]byte // the small payload Retain kept
	IsReq, Traced, replied, kept bool     // kept: own holds it, or Data is a rendezvous buffer's
}

// Retain copies the payload so it survives the handler; the first call on an
// inline payload ≤ 64 B keeps it in the Msg, Data too, so the slice holds the Msg.
func (m *Msg) Retain() []byte {
	if m.kept || m.Data == nil || len(m.Data) > len(m.own) {
		return slices.Clone(m.Data)
	}
	n := copy(m.own[:], m.Data)
	m.Data, m.kept = m.own[:n:n], true
	return m.Data
}

// --- establishment ----------------------------------------------------------

// OnChannel installs the accept handler for listened ports.
func (c *Context) OnChannel(fn func(*Channel)) { c.onChannel = fn }

// Listen accepts X-RDMA channels on the given CM port (xrdma_listen).
func (c *Context) Listen(port int) error {
	if err := c.cm.Listen(port, c.accept); err != nil {
		return err
	}
	c.listenPorts = append(c.listenPorts, port)
	return nil
}

// Connect establishes a channel to (node, port) (xrdma_connect). In mux
// mode that is ChannelTo (which cannot fail here) plus an eager attach;
// otherwise the channel's own link is born dialing. Either way done waits on
// the channel until the attach settles.
func (c *Context) Connect(node fabric.NodeID, port int, done func(*Channel, error)) {
	if c.muxEnabled() {
		ch, _ := c.ChannelTo(node, port)
		ch.onConnect = done
		ch.requestAttach()
		return
	}
	l := c.newEnd(node, attachPending, linkDialing)
	l.solo[0].onConnect = done
	l.establish(nil, port, c.dialHello(hello{purpose: helloOpen}), nil)
}

// sharedRQ is the receive queue a created QP attaches to: the context's SRQ
// when configured, nil for per-channel receive pools. It fills by demand (§VII-F;
// DESIGN §12.1): min(SRQSize, one cache region's worth) slots at the first QP, a
// block more, up to SRQSize, when under 1/srqLimitDiv of one is left posted.
func (c *Context) sharedRQ() *rnic.SRQ {
	if c.srq != nil && c.srqPool == nil {
		c.srqPool = c.Mem.carve(new(recvPool), c.cfg.SRQSize, c.recvBufSize(), true, c)
	}
	return c.srq
}

// poolLanded posts a block of the SRQ's pool and arms the limit event
// (ibv_modify_srq) for the next. A block of a pool a NIC restart dropped while
// it registered goes back (the pool may be the one being carved, not yet
// c.srqPool: compare eras).
func (c *Context) poolLanded(p *recvPool, lo, hi int) {
	if p.gen != c.Mem.gen {
		c.Mem.Free(p.blocks[lo/p.per])
		return
	}
	if first, n := p.run(lo / p.per); c.srq.PostRun(first, n) == nil { // it fits: SRQSize deep, as the pool
		c.Stats.SRQPosted += int64(n)
	}
	if hi < p.n {
		c.srq.Arm(p.per/srqLimitDiv, func() {
			c.Stats.SRQGrows++
			c.Mem.fill(p, hi/p.per)
		})
	}
}

// newChannel builds the flyweight every channel starts as: the window's slots
// and the waiter map (pending) are held only while in use, so an idle one
// carries neither.
func (c *Context) newChannel(peer fabric.NodeID, attach uint8) *Channel {
	return &Channel{ctx: c, Peer: peer, attach: attach, lastProgress: c.eng.Now()}
}

// hasRow is the identity rule for XR-Stat rows: an established, open channel
// on a QP its link owns. It is decided when someone looks, so a recycled QPN,
// an adoption, a Mock switch, a failback or a rehydrate need no bookkeeping. A
// link holds only the QP it owns (none on the fallback); a degraded one keeps
// its broken QP until adoption, so two rows never share a QPN.
func (ch *Channel) hasRow() bool {
	return ch.attach == attachDone && !ch.closed && ch.lk.qp != nil
}

// row emits the channel's XR-Stat row, field by field — the one spelling the
// registry collector and XRStat both read. Only for a channel that hasRow.
func (ch *Channel) row(emit func(field string, v int64)) {
	qp, d := ch.lk.qp, &ch.lk.doctor
	emit("peer", int64(ch.Peer))
	emit("sent", ch.Counters.MsgsSent)
	emit("recv", ch.Counters.MsgsRecv)
	emit("txbytes", ch.Counters.BytesSent)
	emit("rxbytes", ch.Counters.BytesRecv)
	emit("stalls", ch.Counters.WindowStalls)
	emit("rnr", qp.Counters.RNRNakRecv)
	emit("retx", qp.Counters.Retransmits)
	emit("inflight", int64(ch.win.inflight()))
	emit("state", int64(ch.health))
	emit("path_score", int64(d.score*100))
	emit("path_verdict", int64(d.verdict))
	emit("rehashes", d.rehashes)
	emit("reads", ch.Counters.Reads)
	emit("writes", ch.Counters.Writes)
	emit("rdbytes", ch.Counters.ReadBytes)
	emit("wrbytes", ch.Counters.WriteBytes)
	emit("raerrs", ch.Counters.RemoteAccessErrs)
	emit("ver", int64(ch.NegotiatedVersion()))
	emit("caps", int64(ch.PeerCaps()))
	emit("drain", int64(ch.ctx.drain))
	if ch.cid != 0 {
		// The shared QP a muxed channel currently rides (rnr/retx above are
		// that QP's counters, shared with its sibling channels).
		emit("qpn", int64(qp.QPN))
	}
}

// peerAgg is one per-peer aggregate row — chans, sent, recv, txbytes,
// rxbytes — summed over the channels ChannelGaugeLimit folds.
type peerAgg [5]int64

// rows walks the channels that have a row, in Channels() order. The first
// ChannelGaugeLimit of them (all, when it is 0) are reported individually
// through one; the rest fold into per-peer sums, handed to folded in
// ascending peer order, so the registry stays O(peers) at 100k channels. The
// rule is stated on identity — position in Channels() — and so needs no
// state; a row costs nothing until someone looks. Returns how many folded.
func (c *Context) rows(one func(*Channel), folded func(fabric.NodeID, peerAgg)) (nfolded int64) {
	lim, shown := c.cfg.ChannelGaugeLimit, 0
	aggs := map[fabric.NodeID]peerAgg{}
	for _, ch := range c.Channels() {
		switch {
		case !ch.hasRow():
		case lim <= 0 || shown < lim:
			shown++
			one(ch)
		default:
			a, n := aggs[ch.Peer], &ch.Counters
			for i, v := range [...]int64{1, n.MsgsSent, n.MsgsRecv, n.BytesSent, n.BytesRecv} {
				a[i] += v
			}
			aggs[ch.Peer] = a
			nfolded++
		}
	}
	for _, peer := range slices.Sorted(maps.Keys(aggs)) {
		folded(peer, aggs[peer])
	}
	return nfolded
}

// collectRows is the context's registry collector (telemetry.Registry.Collect),
// evaluated at snapshot time only: "<track>.ch.<qpn>.<field>" on an exclusive
// QP, "<track>.mch.<cid>.<field>" when muxed — the cid is the stable identity
// there, the QPN changes across shared-QP recoveries — and, past the limit,
// "<track>.peeragg.<peer>.<field>".
func (c *Context) collectRows(emit func(name string, v int64)) {
	c.rows(func(ch *Channel) {
		prefix := fmt.Sprintf("%s.ch.%d.", c.track, ch.QPN())
		if ch.cid != 0 {
			prefix = fmt.Sprintf("%s.mch.%d.", c.track, ch.cid)
		}
		ch.row(func(field string, v int64) { emit(prefix+field, v) })
	}, func(peer fabric.NodeID, a peerAgg) {
		prefix := fmt.Sprintf("%s.peeragg.%d.", c.track, peer)
		for i, field := range [...]string{"chans", "sent", "recv", "txbytes", "rxbytes"} {
			emit(prefix+field, a[i])
		}
	})
}

// --- teardown ----------------------------------------------------------------

// Close releases the channel gracefully: it leaves its link (link.detach).
func (ch *Channel) Close() {
	ch.teardown(nil)
}

// fail reports a broken transport. The link is the failure domain: it
// degrades (or falls back, or dies) once for every channel riding it.
func (ch *Channel) fail(err error) {
	if !ch.closed && ch.lk != nil {
		ch.lk.fail(err)
	}
}

func (ch *Channel) teardown(err error) {
	if ch.closed {
		return
	}
	ch.closed = true
	c := ch.ctx
	c.chanByCID.Delete(uint64(ch.cid)) // where mux-plane channels live, linkless descriptors included
	if ch.lk != nil {
		ch.lk.detach(ch)
	}
	c.Stats.ChannelsClosed++
	// Fail outstanding requests.
	failErr := err
	if failErr == nil {
		failErr = ErrChannelClosed
	}
	ch.failPending(failErr) // the last settle gives the waiter map back
	ch.remoteWins = nil
	ch.attachSettled(failErr) // an attach that will not happen now
	// Nothing will ack on a dead channel: the queued messages and the unacked
	// tail give back their staged payloads, records and window credits (the
	// §V-A keepalive reclamation contract is "no resource left behind"), and
	// the tenant's window partition its slots.
	ch.unstage()
	for ch.sendQ.Len() > 0 {
		c.drop(ch.sendQ.Pop(), holdSendQ)
	}
	for _, s := range ch.win.slots {
		if s.rec != nil {
			c.drop(s.rec, holdWindow)
		}
	}
	ch.win.rewind(&c.wins)
	ch.tenantRewind()
	ch.win.free(&c.wins) // a pull in flight may still hold them
	ch.stall(false)
	c.eng.Cancel(ch.ackEv)
	if ch.onClose != nil {
		ch.onClose(err)
	}
}

// Closed reports whether the channel is down.
func (ch *Channel) Closed() bool { return ch.closed }

// OnMessage installs the request handler.
func (ch *Channel) OnMessage(fn func(*Msg)) { ch.onMessage = fn }

// OnClose installs the teardown notification.
func (ch *Channel) OnClose(fn func(error)) { ch.onClose = fn }

// Context returns the owning context.
func (ch *Channel) Context() *Context { return ch.ctx }

// QPN exposes the local queue pair number (diagnostics). Muxed channels
// report the shared QP; unattached descriptors report 0.
func (ch *Channel) QPN() uint32 {
	if ch.lk == nil || ch.lk.qp == nil {
		return 0
	}
	return ch.lk.qp.QPN
}

// Attached reports whether the channel has live transport state (always
// true for legacy channels; false for lazy mux descriptors).
func (ch *Channel) Attached() bool { return ch.attach == attachDone }

// Inflight reports windowed messages awaiting ack.
func (ch *Channel) Inflight() int { return int(ch.win.inflight()) }

// Health reports the channel's fault-tolerance state.
func (ch *Channel) Health() HealthState { return ch.health }

// OnHealthChange installs an observer for health transitions — drills
// and tests record recovery timelines through it.
func (ch *Channel) OnHealthChange(fn func(HealthState)) { ch.onHealth = fn }

func (ch *Channel) setHealth(h HealthState) {
	if ch.health == h {
		return
	}
	ch.health = h
	if ch.onHealth != nil {
		ch.onHealth(h)
	}
}

// --- deadlock breaker (§V-B) --------------------------------------------------

// stall marks or unmarks a rider whose send queue waits on a full window,
// keeping the context's count of marked riders that arms the breaker.
func (ch *Channel) stall(on bool) {
	switch {
	case on && !ch.stallFlag:
		ch.Counters.WindowStalls++
		if ch.ctx.stalled++; ch.ctx.stalled == 1 {
			ch.ctx.armScan()
		}
	case !on && ch.stallFlag:
		ch.ctx.stalled--
	}
	ch.stallFlag = on
}

func (ch *Channel) deadlockCheck() {
	if ch.closed || ch.attach != attachDone {
		return
	}
	if ch.nopAt != 0 {
		// A NOP is out soliciting an ack. If the reply was dropped while
		// the peer was transiently degraded (its ctrl plane holds frames),
		// it would latch forever — re-arm after a generous wait instead of
		// trusting one frame.
		if ch.ctx.eng.Now().Sub(ch.nopAt) < 4*deadlockScan {
			return
		}
		ch.nopAt = 0
	}
	if !ch.pathUp() {
		return
	}
	if ch.sendQ.Len() == 0 || ch.win.canSend(&ch.ctx.wins) {
		return
	}
	if ch.ctx.eng.Now().Sub(ch.lastProgress) < deadlockScan {
		return
	}
	// Window full with no progress: fire the reserved NOP to solicit an
	// ack from the peer.
	ch.nopAt = ch.ctx.eng.Now()
	ch.Counters.NopsSent++
	ch.ctx.Stats.NopsSent++
	ch.ctx.tel.Flight.Trip(ch.nopAt, telemetry.CatWindowStall, int32(ch.ctx.Node()), ch.QPN())
	ch.sendCtrl(kindNop)
}

// expireRequests fails the waiters (requests and pings) issued before the
// deadline with ErrTimeout.
func (ch *Channel) expireRequests(deadline sim.Time) {
	// The waiters are in issue order and sentAt never falls with MsgID, so the
	// expired ones are the oldest; an expiry's callback may settle others.
	for rs, c := ch.issued.Oldest(), ch.ctx; rs != nil && rs.sentAt < deadline; rs = ch.issued.Oldest() {
		c.Stats.ReqTimeouts++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatReqTimeout, int32(c.Node()), ch.QPN(), int64(rs.msgID), 0)
		ch.settle(rs)(nil, ErrTimeout)
	}
}
