package xrdma

import (
	"cmp"
	"fmt"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
	"xrdma/internal/xrmon"
)

// Context is X-RDMA's per-thread execution domain (§IV-B): it owns the
// completion queues, the memory and QP caches, the flow controller, the
// per-thread timer and every channel created on it. All callbacks run
// inside the context's run-to-complete poll loop — no locks, no cross-
// context sharing.
type Context struct {
	eng  *sim.Engine
	vctx *verbs.Context
	cm   *verbs.CM
	host *fabric.Host
	cfg  Config

	pd   *verbs.PD
	Mem  *MemCache
	QPs  *QPCache
	flow *flowCtl

	sendCQ, recvCQ *rnic.CQ
	srq            *rnic.SRQ
	srqPool        *recvPool // the SRQ's standing buffers, from the first QP on (sharedRQ)

	// The message records (msgrec.go): posted routes a send completion to the
	// record that posted the WR; recs is the free list, which at quiescence
	// holds every live record. These and what a connect and a close recycle
	// (DESIGN §9.6) are trimmed together at trimAt, once per memShrinkIdle.
	posted   sim.Table[msgRec] // by WR id, issued in sequence
	recs     sim.FreeList[*msgRec]
	estabs   sim.FreeList[*estab]
	wins     winPool                          // Channel.win's slots
	waitMaps sim.FreeList[map[uint64]*msgRec] // Channel.pending
	trimAt   sim.Time
	stalled  int // riders with stallFlag set (Channel.stall)
	wrSeq    uint64
	msgSeq   uint64

	brk     *breaker // the deadlock breaker's clock, shared by the contexts on this one's grid
	brkRank int      // this context's place on brk, its start order

	winSeq uint64 // one-sided plane (onesided.go): the last window id handed out

	onChannel func(*Channel)
	onEnd     func(*link) // tests: hears every exclusive end newEnd builds

	// pollOnce drains the CQs into the reused buffer, sends first; each
	// dispatchFn runs the next completion there (disp). Bound once.
	cqeBuf                     []rnic.CQE
	sends, disp                int
	pollFn, wakeFn, dispatchFn func()

	// Hybrid polling state (§IV-B).
	pollEv    sim.Event // in event mode, the pending epoll wake
	parked    bool      // pollEv is the idleSpins-th idle spin or wakeAt's poll; the spins before are skipSpins' arithmetic
	wakeAt    sim.Time  // when the completion that pulled pollEv forward wakes the thread, MaxTime if none did
	lastPoll  sim.Time
	idlePolls int
	eventMode bool
	busyUntil sim.Time
	started   bool

	flagLog []flagChange // online configuration changes (SetFlag)
	rng     *sim.RNG
	// agent is this node's §VI-B monitor: the xrmon sampler that
	// housekeeping drives and XRStat's window line reads.
	agent *xrmon.Agent

	// Mock (TCP fallback).
	tcp      *tcpnet.Stack
	mockPort int

	// Link plane (link.go). links holds every live link — exclusive and
	// shared — in creation order: the deterministic scan list the
	// per-transport timers and the NIC-restart fan-out walk (the maps are
	// not). The periodic scans walk it by index, because a visit may close
	// links and shift the list left; a link that slides into a visited slot
	// waits for the next tick, the same in every run. One-shot fan-outs
	// that must reach every link walk a snapshot. qpnTab is the one table
	// keyed by local QPN: each link's current QPN → the link, written by
	// link.setQP and cleared by link.close. It routes receive completions
	// and is the fast path of the recovery rendezvous. dialing holds exclusive
	// links until their first QP: off the scan list, but reached by allLinks.
	// recoverPort > 0 enables RDMA re-establishment for exclusive links.
	recoverPort int
	links       []*link
	dialing     []*link
	qpnTab      sim.Table[link]

	// QP multiplexing (mux.go, Config.QPsPerPeer > 0). chanByCID holds
	// every mux-plane channel (lazy descriptors included) by its
	// context-unique cid. attachQ/attachActive implement the admission cap
	// on concurrent lazy attaches.
	mux          map[fabric.NodeID]*peerMux
	chanByCID    sim.Table[Channel]
	cidSeq       uint32
	attachQ      sim.Queue[*Channel]
	attachActive int

	// Tenancy plane (Config.Tenants): the tenant table in id order, the
	// name index and the count of frames whose label named no local
	// tenant (graceful default treatment).
	tenants       []*Tenant
	tenantByName  map[string]*Tenant
	tenantUnknown int64

	// Hot-upgrade plane (drain.go): the Serving→Draining→Drained
	// lifecycle, the handoff callback armed by Drain, when it began,
	// and every CM port this context listens on (so Shutdown can release
	// them for the restarted instance).
	drain        DrainState
	drainCB      func([]byte)
	drainStarted sim.Time
	listenPorts  []int

	// Clock skew of this node (set by the cluster harness) and the
	// estimated offset table from the clock-sync service.
	clockSkew sim.Duration
	toff      map[fabric.NodeID]sim.Duration

	// Telemetry: the engine-keyed set, this node's track name
	// ("xrdma.<node>") and the pre-resolved RTT histogram handle.
	tel     *telemetry.Set
	track   string
	rttHist telemetry.Histogram
	recHist telemetry.Histogram

	Stats ContextStats
}

// ContextStats aggregates per-context counters for XR-Stat and the gauges.
type ContextStats struct {
	Polls           int64 // lags by up to 63 while the poller is parked (nextPoll); the "polls" gauge adds them
	SlowPolls       int64
	SlowOps         int64 // traced one-way latency or RTT beyond SlowThreshold (trace.go)
	EventWakes      int64
	Dispatched      int64
	ChannelsOpened  int64
	ChannelsClosed  int64
	ChannelsBroken  int64
	KeepaliveProbes int64
	KeepaliveFails  int64
	NopsSent        int64
	AcksSent        int64
	ReqTimeouts     int64
	ReqRetries      int64 // always 0: nothing re-issues a request; kept because benchmark/harness.go reads it
	MockSwitches    int64
	Degraded        int64
	RecoverAttempts int64
	Recoveries      int64
	Failbacks       int64
	PathRehashes    int64
	PathEscalations int64
	PathHints       int64 // PATH_HINT frames sent (RX-attributed sickness)
	PathHintsRecv   int64

	// Hot-upgrade plane: version-negotiation failures (disjoint ranges or
	// foreign-version frames), establishment attempts refused because the
	// node was draining, and channels rehydrated from a handoff blob.
	VerMismatches int64
	DrainRefusals int64
	Rehydrated    int64
	// sharedRQ's fill of the current pool: slots in place (verbs cannot
	// un-post; a NIC restart flushes them all), limit events.
	SRQPosted, SRQGrows int64
}

// Options wires a Context to its node.
type Options struct {
	Verbs  *verbs.Context
	CM     *verbs.CM
	Host   *fabric.Host
	Config Config
	// TCP enables the Mock fallback plane; MockPort is where this node
	// accepts mock connections.
	TCP      *tcpnet.Stack
	MockPort int
	// RecoverPort, when non-zero, enables the channel health state
	// machine: degraded channels re-establish RDMA through a CM listener
	// on this port instead of failing straight to Mock/teardown.
	RecoverPort int
	// ClockSkew offsets this node's local clock (tracing experiments).
	ClockSkew sim.Duration
	Seed      uint64
}

// NewContext builds a context and starts its poll loop and timers.
func NewContext(o Options) *Context {
	c := &Context{
		eng:         o.Verbs.Eng,
		vctx:        o.Verbs,
		cm:          o.CM,
		host:        o.Host,
		cfg:         o.Config,
		rng:         sim.NewRNG(o.Seed ^ 0x9e37),
		tcp:         o.TCP,
		mockPort:    o.MockPort,
		recoverPort: o.RecoverPort,
		clockSkew:   o.ClockSkew,
		toff:        make(map[fabric.NodeID]sim.Duration),
		wins:        winPool{depth: uint64(o.Config.WindowDepth)},
	}
	c.pollFn, c.wakeFn, c.dispatchFn = c.pollTick, c.woke, c.dispatchNext
	c.tel = telemetry.For(c.eng)
	c.track = fmt.Sprintf("xrdma.%d", c.host.ID)
	c.rttHist = c.tel.Reg.Histogram(c.track + ".rtt_ns")
	c.recHist = c.tel.Reg.Histogram(c.track + ".recovery_ns")
	c.pd = c.vctx.AllocPD()
	c.Mem = newMemCache(c, c.cfg.MRSize, c.cfg.MemMode)
	c.QPs = &QPCache{ctx: c}
	c.flow = &flowCtl{ctx: c, limit: c.cfg.MaxOutstandingWRs}
	c.sendCQ = rnic.NewCQ(8192)
	c.recvCQ = rnic.NewCQ(8192)
	c.registerGauges()
	if len(c.cfg.Tenants) > 0 {
		c.initTenants()
	}
	if c.cfg.QPsPerPeer > 0 {
		// QP multiplexing implies SRQ receives: shared QPs cannot post
		// per-channel receive pools.
		c.cfg.UseSRQ = true
		c.mux = make(map[fabric.NodeID]*peerMux)
	}
	if c.cfg.UseSRQ {
		c.srq = rnic.NewSRQ(c.cfg.SRQSize) // a few words; sharedRQ fills it
	}
	c.sendCQ.OnCompletionAt(c.wake)
	c.recvCQ.OnCompletionAt(c.wake)
	// A restart re-registers the node: the collector keeps the agent (and
	// its window history) and re-binds its probes against the fresh gauges.
	var trefs []xrmon.TenantRef
	for _, t := range c.Tenants() {
		trefs = append(trefs, xrmon.TenantRef{ID: t.ID(), Label: t.Name()})
	}
	c.agent = xrmon.For(c.eng).RegisterAgent(
		int32(c.Node()), fmt.Sprintf("rnic.%d.", c.Node()), c.track+".", trefs)
	if c.tcp != nil && c.mockPort > 0 {
		c.listenMock()
	}
	if c.recoverPort > 0 {
		c.Listen(c.recoverPort)
	}
	c.startPolling()
	c.startTimers()
	return c
}

// gauge is one row of a registerGauges table.
type gauge struct {
	name string
	fn   func() int64
}

// registerGauges publishes every ContextStats field plus the live resource
// levels into the engine's metric registry, and the per-channel rows as one
// collected family (channel.go). All of it is evaluated only at snapshot
// time, so the hot path pays nothing — and re-registering under the same
// track is how a restarted node's fresh context takes over from the dead one.
func (c *Context) registerGauges() {
	reg := c.tel.Reg
	reg.Fields(c.track, &c.Stats)
	for _, g := range []gauge{
		{"drain_state", func() int64 { return int64(c.drain) }},
		{"channels", func() int64 { return int64(c.NumChannels()) }},
		{"mux_qps", func() int64 { _, n := c.linkCensus(); return int64(n) }},
		{"agg_channels", func() int64 { return c.rows(func(*Channel) {}, func(fabric.NodeID, peerAgg) {}) }},
		{"mem_occupied", func() int64 { return c.Mem.OccupiedBytes() }},
		{"mem_inuse", func() int64 { return c.Mem.InUseBytes }},
		{"mem_pool_inuse", func() int64 { return c.Mem.PoolInUseBytes }},
		{"tenant_unknown", func() int64 { return c.tenantUnknown }},
		{"qp_cache", func() int64 { return int64(c.QPs.Len()) }},
		{"polls", func() int64 { // replaces the field's row: a parked poller's passed spins are added (skipSpins' count), nothing changes
			if k := c.eng.Now().Sub(c.lastPoll) / pollEvery; c.parked {
				return c.Stats.Polls + int64(k)
			}
			return c.Stats.Polls
		}},
	} {
		reg.GaugeFunc(c.track+"."+g.name, g.fn)
	}
	reg.Collect(c.track, c.collectRows)
}

// Telemetry returns the engine-keyed telemetry set this context reports
// into (shared with the fabric and every NIC on the same engine).
func (c *Context) Telemetry() *telemetry.Set { return c.tel }

// Node returns this context's fabric node id.
func (c *Context) Node() fabric.NodeID { return c.host.ID }

// Engine exposes the simulation engine.
func (c *Context) Engine() *sim.Engine { return c.eng }

// Config returns a copy of the current configuration.
func (c *Context) Config() Config { return c.cfg }

// NumChannels reports live channels — exclusive-QP channels plus every
// mux-plane channel (attached or still a lazy descriptor).
func (c *Context) NumChannels() int {
	exclusive, _ := c.linkCensus()
	return exclusive + c.chanByCID.Len()
}

// linkCensus counts the exclusive links (one channel each) and the shared
// links that have a QP installed.
func (c *Context) linkCensus() (exclusive, sharedQPs int) {
	for _, l := range c.links {
		switch {
		case !l.shared():
			exclusive++
		case l.qp != nil:
			sharedQPs++
		}
	}
	return exclusive, sharedQPs
}

// LocalClock is the node's wall clock including configured skew.
func (c *Context) LocalClock() sim.Time { return c.eng.Now().Add(c.clockSkew) }

func (c *Context) nextWRID() uint64  { c.wrSeq++; return c.wrSeq }
func (c *Context) nextMsgID() uint64 { c.msgSeq++; return c.msgSeq }

// FlagLog returns the history of online configuration changes.
func (c *Context) FlagLog() []flagChange { return c.flagLog }

// --- polling ----------------------------------------------------------------

func (c *Context) startPolling() {
	c.started = true
	c.lastPoll = c.eng.Now()
	c.nextPoll()
}

const idleSpins = 64 // consecutive empty polls before the poller sleeps in epoll

// nextPoll ends a poll. A spin that cannot find anything is arithmetic, not an
// engine event: when both CQs show nothing and the thread is free by the next
// spin the poller parks — its one event is the idleSpins-th consecutive idle
// spin, the one that enters event mode, and skipSpins accounts the ones before.
func (c *Context) nextPoll() {
	at := c.lastPoll.Add(pollEvery)
	if c.parked = c.sendCQ.Len()+c.recvCQ.Len() == 0 && c.busyUntil <= at; c.parked {
		at = c.sleepAt()
	}
	c.schedulePoll(at, c.nextAt())
}

// schedulePoll makes the poller's one event the poll due at at, unless a
// completion visible at w wakes the thread first (wakeAt): then it is
// spinDetect after w or, parked, the next spin if that is sooner.
func (c *Context) schedulePoll(at, w sim.Time) {
	wakeAt := sim.MaxTime
	if w < at.Add(-spinDetect) {
		wakeAt, at = w, w.Add(spinDetect)
		if c.parked {
			at = min(at, c.lastPoll.Add((w.Sub(c.lastPoll)/pollEvery+1)*pollEvery))
		}
	}
	if at != c.pollEv.At() {
		c.wakeAt = wakeAt
		c.eng.Cancel(c.pollEv)
		c.pollEv = c.eng.At(at, c.pollFn)
	}
}

// nextAt is when a CQ that shows nothing shows a completion, sleepAt when a
// parked poller's last idle spin fires.
func (c *Context) nextAt() sim.Time { return min(c.sendCQ.NextAt(), c.recvCQ.NextAt()) }
func (c *Context) sleepAt() sim.Time {
	return c.lastPoll.Add(sim.Duration(idleSpins-c.idlePolls) * pollEvery)
}

// skipSpins accounts, in closed form, the idle spins a parked poller did not
// fire up to and including instant t (by default wakeAt, once the thread has
// woken there); the spin phase is kept. One rule for the case arithmetic
// cannot decide: a skipped spin that coincides to the nanosecond with whatever
// unparks counts as having fired first.
func (c *Context) skipSpins(t sim.Time) {
	if t = min(t, c.wakeAt); !c.parked || t > c.eng.Now() {
		return
	}
	k := t.Sub(c.lastPoll) / pollEvery
	c.Stats.Polls += int64(k)
	c.idlePolls += int(k)
	c.lastPoll = c.lastPoll.Add(k * pollEvery)
	c.parked = false
}

// unparkPoll puts a parked poller's next real poll at the next spin instant, or
// within from now if that is sooner. A parked poller whose last idle spin is
// already that close is left alone.
func (c *Context) unparkPoll(within sim.Duration) {
	at := c.eng.Now().Add(within)
	if c.skipSpins(sim.MaxTime); c.parked && c.sleepAt() > at {
		c.skipSpins(c.eng.Now())
		c.schedulePoll(min(at, c.lastPoll.Add(pollEvery)), c.nextAt())
	}
}

// spinDetect is how quickly a busy-polling thread notices a fresh CQE, and
// epollWake how quickly a thread asleep in epoll wakes for one.
const (
	spinDetect = 100 * sim.Nanosecond
	epollWake  = 2 * sim.Microsecond
)

// wake is the CQs' completion hook: a CQ that showed nothing shows a
// completion at at (now, for a flush). It does at once what the thread does
// when it notices the completion then: the epoll wake latency in event mode
// (one wake per sleep, the earliest), else pull the poll forward. During a
// poll it does nothing: nextPoll reads the CQs when the poll ends.
func (c *Context) wake(at sim.Time) {
	switch c.skipSpins(sim.MaxTime); {
	case c.eventMode:
		if !c.pollEv.Pending() {
			c.Stats.EventWakes++
		} else if c.pollEv.At() <= at.Add(epollWake) {
			return
		}
		c.eng.Cancel(c.pollEv)
		c.pollEv = c.eng.At(at.Add(epollWake), c.wakeFn)
	case c.parked && c.pollEv.Pending():
		c.schedulePoll(c.sleepAt(), min(at, c.nextAt()))
		c.skipSpins(sim.MaxTime) // a flush wakes the thread now
	case c.pollEv.Pending():
		c.schedulePoll(c.pollEv.At(), at)
	case !c.started: // a closed poller's wake still ticks once
		c.schedulePoll(sim.MaxTime, at)
	}
}

// woke ends event mode once the epoll wake latency has passed. The slow-poll
// clock restarts: the thread slept in epoll, the application did not hog it.
func (c *Context) woke() {
	c.eventMode = false
	c.idlePolls = 0
	c.lastPoll = c.eng.Now()
	c.schedulePoll(c.lastPoll, sim.MaxTime)
}

func (c *Context) pollTick() {
	if c.skipSpins(sim.MaxTime); !c.started {
		return
	}
	c.skipSpins(c.eng.Now().Add(-pollEvery)) // parked: this spin is real
	// Application work can hog the run-to-complete thread; the poller
	// cannot run before it finishes (this is how slow-poll incidents
	// happen, §VI-A method II).
	if c.busyUntil > c.eng.Now() {
		c.schedulePoll(c.busyUntil, c.nextAt())
		return
	}
	if c.pollOnce() == 0 {
		c.idlePolls++
		if c.idlePolls >= idleSpins {
			// Hybrid polling: long idle → event mode (epoll).
			if c.eventMode = true; c.nextAt() < sim.MaxTime {
				c.wake(c.nextAt())
			}
			return
		}
	} else {
		c.idlePolls = 0
	}
	c.nextPoll()
}

// pollOnce drains both CQs and dispatches completions, charging the
// middleware's per-message software cost.
func (c *Context) pollOnce() int {
	now := c.eng.Now()
	gap := now.Sub(c.lastPoll)
	if gap > c.cfg.PollingWarnCycle && c.Stats.Polls > 0 {
		c.Stats.SlowPolls++
		c.tel.Flight.Record(now, telemetry.CatSlowPoll, int32(c.Node()), 0, int64(gap), 0)
	}
	c.lastPoll = now
	c.Stats.Polls++

	// A poll a completion pulled forward orders as if scheduled at that
	// completion's instant, the moment the thread noticed it: every
	// completion visible at the poll's own instant was pushed before then
	// (none costs less than spinDetect), so the poll sees them all.
	k := c.eng.Current()
	if c.wakeAt < sim.MaxTime {
		k = sim.EndOf(now)
	}
	c.cqeBuf = c.sendCQ.PollAppendAt(c.cqeBuf[:0], 128, k)
	c.sends, c.disp = len(c.cqeBuf), 0
	c.cqeBuf = c.recvCQ.PollAppendAt(c.cqeBuf, 128, k)
	n := len(c.cqeBuf)
	if n == 0 {
		return 0
	}
	c.Stats.Dispatched += int64(n)
	t, cost := now.Add(pollCost), perMsgCost
	for i := range n {
		if i == c.sends && c.cfg.ReqRspMode {
			cost += traceCost // receives pay for req-rsp tracing
		}
		t = t.Add(cost)
		c.eng.At(t, c.dispatchFn)
	}
	c.busyUntil = t
	return n
}

// dispatchNext runs the next polled completion where the poll left it: a
// poll schedules one dispatch per completion at ascending instants, and the
// loop does not poll again before the last of them (busyUntil), so the
// events and the index stay in step.
func (c *Context) dispatchNext() {
	c.disp++
	c.dispatch(&c.cqeBuf[c.disp-1], c.disp > c.sends)
}

func (c *Context) dispatch(cqe *rnic.CQE, recv bool) {
	if !recv {
		// An unknown WR is a flushed duplicate after error handling already ran.
		if rec := c.posted.Get(cqe.WRID); rec != nil {
			c.posted.Delete(cqe.WRID)
			c.complete(rec, cqe, false)
		}
	} else if l := c.qpnTab.Get(uint64(cqe.QPN)); l != nil {
		l.recv(cqe)
	} else {
		// No live link owns the QPN (its channel was torn down): the SRQ
		// buffer, if the completion consumed one, goes back.
		c.recycleSRQ(cqe.WRID)
	}
}

// InjectWork simulates the application occupying the thread for d —
// used by jitter experiments to create slow-poll incidents.
func (c *Context) InjectWork(d sim.Duration) {
	c.unparkPoll(pollEvery)
	c.busyUntil = max(c.busyUntil, c.eng.Now()).Add(d)
}

// --- timers -----------------------------------------------------------------

// every runs scan once per period — re-read each tick: the intervals are
// online flags — for as long as the context is started. The timer callback is
// built once, not per tick.
func (c *Context) every(period func() sim.Duration, scan func()) {
	var tick func()
	tick = func() {
		if c.started {
			scan()
			c.eng.AfterBg(period(), tick)
		}
	}
	c.eng.AfterBg(period(), tick)
}

func (c *Context) startTimers() {
	c.joinBreaker()
	c.every(func() sim.Duration { return cmp.Or(max(c.cfg.KeepaliveInterval/2, 0), 5*sim.Millisecond) }, c.keepaliveScan)
	c.every(func() sim.Duration { return cmp.Or(max(c.cfg.StatsInterval, 0), 10*sim.Millisecond) }, c.housekeeping)
}

// keepaliveScan probes once per QP, not once per channel: liveness is a
// property of the transport underneath.
func (c *Context) keepaliveScan() {
	if now := c.eng.Now(); c.cfg.KeepaliveInterval > 0 {
		for i := 0; i < len(c.links); i++ {
			c.links[i].keepalive(now)
		}
	}
}

// breaker is the deadlock breaker's clock (§V-B) for the contexts of an
// engine whose 500 µs grids, from the instants they started, coincide. It is
// armed only while one of them has a rider stalled, from the first grid
// instant after the stall, and a tick scans them in start order: when and in
// which order a per-context periodic scan found them. A stall at a grid
// instant itself waits a full period, where a per-context timer due at that
// instant and queued before the stalling event scanned it at once.
type breaker struct {
	from   sim.Time
	joined int        // contexts that ever joined: the next rank
	armed  []*Context // contexts with a rider stalled, by rank; a tick is due while any
	tickFn func()
}

type breakerKey struct{ phase sim.Time }

func (c *Context) joinBreaker() {
	now := c.eng.Now()
	c.brk = c.eng.AuxInit(breakerKey{now % sim.Time(deadlockScan)}, func() any {
		b := &breaker{from: now}
		b.tickFn = b.tick
		return b
	}).(*breaker)
	c.brkRank = c.brk.joined
	c.brk.joined++
}

// armScan puts a context whose first rider just stalled on the next tick.
func (c *Context) armScan() {
	b := c.brk
	i, found := slices.BinarySearchFunc(b.armed, c.brkRank, func(a *Context, r int) int { return a.brkRank - r })
	if found || !c.started {
		return
	}
	if len(b.armed) == 0 {
		c.eng.AfterBg(deadlockScan-c.eng.Now().Sub(b.from)%deadlockScan, b.tickFn)
	}
	b.armed = slices.Insert(b.armed, i, c)
}

// tick walks by index: a context armed mid-tick is scanned now if it ranks
// after the one in progress, next tick if not (checking one twice at an
// instant changes nothing). The still stalled wait one period more.
func (b *breaker) tick() {
	for i := 0; i < len(b.armed); i++ {
		if c := b.armed[i]; c.started {
			c.deadlockScan()
		}
	}
	b.armed = slices.DeleteFunc(b.armed, func(c *Context) bool { return !c.started || c.stalled == 0 })
	if len(b.armed) > 0 {
		b.armed[0].eng.AfterBg(deadlockScan, b.tickFn)
	}
}

// deadlockScan walks the riders in place, by index like the links: a check
// only ever sends a NOP, and if that breaks the link the riders are parked,
// not detached. It walks only while some rider is marked stalled.
func (c *Context) deadlockScan() {
	if c.stalled == 0 {
		return // a NOP is only ever sent for a rider pump found stalled
	}
	for i := 0; i < len(c.links); i++ {
		for j, l := 0, c.links[i]; j < len(l.riders); j++ {
			l.riders[j].deadlockCheck()
		}
	}
}

func (c *Context) housekeeping() {
	c.Mem.reclaim()
	if now := c.eng.Now(); now >= c.trimAt {
		// The memory cache's rule: what sat free a whole idle horizon goes, so
		// a burst a few ticks apart reuses what the last one made.
		c.trimAt = now.Add(memShrinkIdle)
		c.recs.Trim()
		c.estabs.Trim()
		c.wins.Trim()
		c.waitMaps.Trim()
		c.cm.Trim()
	}
	c.timeoutScan()
	c.pathScan()
	c.agent.Sample(c.eng.Now())
}

func (c *Context) timeoutScan() {
	if c.cfg.RequestTimeout <= 0 {
		return
	}
	deadline := c.eng.Now().Add(-c.cfg.RequestTimeout)
	for _, ch := range c.Channels() {
		ch.expireRequests(deadline)
	}
}

// Channels snapshots the live channels — exclusive ones in ascending QPN
// order (on the Mock fallback or awaiting re-establishment after a restart:
// the last QPN they owned), then mux-plane ones (lazy descriptors included)
// in ascending cid order. Every per-channel walk that makes order-dependent
// decisions (close order, what XR-Stat prints) goes through this, never a
// map — map iteration order is randomized and would leak into the
// deterministic digests.
func (c *Context) Channels() []*Channel {
	var out []*Channel
	for _, l := range c.links {
		if !l.shared() {
			out = append(out, l.riders...)
		}
	}
	slices.SortStableFunc(out, func(a, b *Channel) int { return cmp.Compare(a.lk.qpn0, b.lk.qpn0) })
	for _, ch := range c.chanByCID.All() {
		out = append(out, ch)
	}
	return out
}

// Close tears down the context: all channels close, then every link left
// gives up — establishments in flight are abandoned (Connect hears
// ErrChannelClosed), shared QPs, which outlive their riders, are destroyed.
func (c *Context) Close() {
	for _, ch := range c.Channels() {
		ch.Close()
	}
	for _, l := range c.allLinks() {
		l.giveUp(ErrChannelClosed)
	}
	// The QPs just given back flushed what they held (shared riders' CHAN_CLOSE,
	// requests still posted): one last poll, at no cost, completes it, outside
	// the poll buffer that dispatches still pending index.
	for i, cq := range [2]*rnic.CQ{c.sendCQ, c.recvCQ} {
		for _, cqe := range cq.Poll(cq.Len()) {
			c.dispatch(&cqe, i == 1)
		}
	}
	c.unparkPoll(pollEvery) // the last tick fires where it always did, and returns
	c.started = false
}

// allLinks snapshots every link, establishing ones included, for the
// one-shot fan-outs: a visit may close links and edit both lists.
func (c *Context) allLinks() []*link {
	return append(slices.Clone(c.links), c.dialing...)
}

// OnNICRestart rebuilds memory-dependent state after the local NIC came
// back from a crash with its registered memory gone (a machine reboot in
// the chaos scenarios): the memory cache drops its dead regions, the SRQ its
// WQEs into them — the first replacement QP carves a fresh pool (sharedRQ) —
// and every link is failed, in creation order, so the health machinery
// re-establishes it on fresh QPs and MRs.
func (c *Context) OnNICRestart() {
	c.Mem.Reset()
	if c.srq != nil {
		c.srq.Flush()
		c.srqPool, c.Stats.SRQPosted, c.Stats.SRQGrows = nil, 0, 0
	}
	for _, l := range c.allLinks() {
		l.fail(ErrNICRestart)
	}
}

// --- SRQ support -------------------------------------------------------------

// recycleSRQ reposts one consumed SRQ buffer; a WR id that names none (a link
// pool's slot, a dropped pool's, or no SRQ pool at all) is left alone.
func (c *Context) recycleSRQ(wrID uint64) {
	if wr, ok := c.srqPool.wr(wrID); ok {
		_ = c.srq.Post(wr) // as deep as the pool has slots: a consumed one always fits
	}
}

func (c *Context) recvBufSize() int {
	n := hdrSize + traceExtSize + blameExtSize + c.cfg.SmallMsgSize
	if len(c.cfg.Tenants) > 0 {
		// Labelled data frames carry the tenant extension; zero-tenant
		// contexts keep the legacy size so their allocation pattern (and
		// golden digests) stay byte-identical.
		n += tenantExtSize
	}
	return n
}

// --- filter sync -------------------------------------------------------------

// syncFilter installs/updates the NIC fault-injection hook from the
// online filter flags (§VI-C "Emulate Fault").
func (c *Context) syncFilter() {
	if c.cfg.FilterDropRate <= 0 && c.cfg.FilterDelay <= 0 {
		c.vctx.NIC.FaultHook = nil
		return
	}
	drop, delay := c.cfg.FilterDropRate, c.cfg.FilterDelay
	c.vctx.NIC.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
		if p.Class == fabric.ClassCtrl {
			return false, 0 // keep hardware acks/CNPs intact
		}
		if drop > 0 && c.rng.Float64() < drop {
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatFilterDrop, int32(c.Node()), 0, int64(p.Size), 0)
			return true, 0
		}
		return false, delay
	}
}
