package xrdma

import (
	"errors"
	"fmt"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// The tenancy plane (RDMAvisor-style "RDMA as a service"): channels carry
// a tenant label, and every shared resource of the context — the send
// window, the wire rate, the shared-QP send queue, the registered-memory
// pool — is partitioned per tenant so an elephant cannot starve a
// latency-sensitive neighbor. A context with no Config.Tenants runs the
// legacy single-implicit-tenant plane, byte-identical on the wire and
// event-identical in the engine.

// ErrUnknownTenant rejects ChannelTo(WithTenant) against a name missing
// from Config.Tenants.
var ErrUnknownTenant = errors.New("xrdma: unknown tenant")

// Tenant is the runtime state of one declared tenant: QoS limits, shed
// state, memory accounting and counters. Counter fields are exported for
// XR-Stat and experiments; they are written only on the engine goroutine.
type Tenant struct {
	id    uint16
	cfg   TenantConfig
	ctx   *Context
	label [8]byte

	// Token bucket (RateBps): lazily refilled from engine-time deltas;
	// one refill event is armed only while a sender is actually throttled.
	tokens      float64
	lastRefill  sim.Time
	refillArmed bool

	// Send-window partition (SendWindow): windowed frames in flight
	// across all of the tenant's channels.
	inflight int

	// Channels stalled on the rate bucket or the window partition, FIFO.
	waiters []*Channel

	// Shed ladder: until shedUntil, new attaches from this tenant are
	// queued instead of started.
	shedUntil   sim.Time
	shedExpArmd bool

	// Block-rounded registered-memory footprint (MemBudget accounting).
	memUsed int64

	// Counters.
	Sent        int64 // windowed frames transmitted
	Recvd       int64 `metric:"recv"`    // windowed frames received
	TxBytes     int64 `metric:"txbytes"` // wire bytes transmitted
	RxBytes     int64 `metric:"rxbytes"` // payload bytes received
	RateStalls  int64 // pump stalls on the token bucket
	WinStalls   int64 // pump stalls on the window partition
	MemRejects  int64 // allocations rejected with ErrTenantBudget
	Sheds       int64 // shed episodes started
	AttachSheds int64 // attaches queued by the shed ladder
	DRRQueued   int64 // frames that waited in a DRR queue
	RTTCount    int64 // delivered responses (blame/latency dimension)
	RTTSumNs    int64
}

// ID returns the tenant's wire id (index into Config.Tenants + 1).
func (t *Tenant) ID() uint16 { return t.id }

// Name returns the tenant's configured name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Shedding reports whether the tenant is inside a shed episode.
func (t *Tenant) Shedding() bool {
	return t.ctx.eng.Now() < t.shedUntil
}

// initTenants builds the tenant table from Config.Tenants and registers
// the per-tenant gauge family. Called from NewContext only when the
// table is non-empty, so zero-tenant contexts carry none of this.
func (c *Context) initTenants() {
	c.tenantByName = make(map[string]*Tenant, len(c.cfg.Tenants))
	for i, tc := range c.cfg.Tenants {
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		if tc.RateBps > 0 && tc.BurstBytes <= 0 {
			tc.BurstBytes = tc.RateBps / 100
			if tc.BurstBytes < 64<<10 {
				tc.BurstBytes = 64 << 10
			}
		}
		t := &Tenant{id: uint16(i + 1), cfg: tc, ctx: c, tokens: float64(tc.BurstBytes)}
		copy(t.label[:], tc.Name)
		c.tenants = append(c.tenants, t)
		c.tenantByName[tc.Name] = t
		c.registerTenantGauges(t)
	}
}

// registerTenantGauges publishes the tenant's counters and live levels under
// "<track>.tenant.<id>." — the same registry the Prometheus exposition and the
// XR-Stat TENANT table read.
func (c *Context) registerTenantGauges(t *Tenant) {
	reg, prefix := c.tel.Reg, fmt.Sprintf("%s.tenant.%d", c.track, t.id)
	reg.Fields(prefix, t)
	for _, g := range []gauge{
		{"weight", func() int64 { return int64(t.cfg.Weight) }},
		{"inflight", func() int64 { return int64(t.inflight) }},
		{"mem_used", func() int64 { return t.memUsed }},
		{"mem_budget", func() int64 { return t.cfg.MemBudget }},
	} {
		reg.GaugeFunc(prefix+"."+g.name, g.fn)
	}
}

// Tenant resolves a configured tenant by name (nil if absent).
func (c *Context) Tenant(name string) *Tenant { return c.tenantByName[name] }

// Tenants returns the tenant table in id order.
func (c *Context) Tenants() []*Tenant { return c.tenants }

// tenantByID resolves a wire tenant id (nil when out of table).
func (c *Context) tenantByID(id uint16) *Tenant {
	if id == 0 || int(id) > len(c.tenants) {
		return nil
	}
	return c.tenants[id-1]
}

// tenantByLabel resolves a wire label against the local table; used when
// the peer's numeric id does not line up (foreign or re-ordered tables).
func (c *Context) tenantByLabel(label [8]byte) *Tenant {
	for _, t := range c.tenants {
		if t.label == label {
			return t
		}
	}
	return nil
}

// resolveTenant binds an inbound frame's tenant identity: the numeric id
// when both tables agree (the id's label matches), the label otherwise.
// A label naming no local tenant counts and degrades to untenanted.
func (c *Context) resolveTenant(h *wireHdr) *Tenant {
	if t := c.tenantByID(h.Tenant); t != nil && t.label == h.TLabel {
		return t
	}
	if t := c.tenantByLabel(h.TLabel); t != nil {
		return t
	}
	c.tenantUnknown++
	return nil
}

// ChannelOpt configures a channel at creation (ChannelTo).
type ChannelOpt func(*Channel) error

// WithTenant labels the channel with a configured tenant; the label is
// carried to the passive side on CHAN_OPEN (mux) or the first data frame.
func WithTenant(name string) ChannelOpt {
	return func(ch *Channel) error { return ch.BindTenant(name) }
}

// BindTenant labels an already-created channel (classic Connect path,
// which has no option plumbing). It must run before the first send.
func (ch *Channel) BindTenant(name string) error {
	t := ch.ctx.tenantByName[name]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	ch.tenant = t
	return nil
}

// TenantOf returns the channel's tenant (nil when unlabelled).
func (ch *Channel) TenantOf() *Tenant { return ch.tenant }

// ---------------------------------------------------------------------------
// Shed ladder: a tenant's budget breach sheds its *new* attaches
// (admission FIFO reuse) while established traffic is merely
// backpressured — graceful degradation, never collapse.

// Shed flight-event codes: the B value of a CatTenantShed record (the QPN
// field names the tenant) other than the Trip that opens an episode (B 0).
const (
	shedEvAttach = 1 + iota // an attach queued behind the gate (A is its cid)
	shedEvOver              // the episode ended
)

// noteBudgetReject records an ErrTenantBudget rejection and starts (or
// extends) a shed episode. The first breach of an episode trips a flight
// dump naming the culprit tenant in the QPN field.
func (t *Tenant) noteBudgetReject(want int64) {
	t.MemRejects++
	c := t.ctx
	now := c.eng.Now()
	c.tel.Flight.Record(now, telemetry.CatTenantBudget, int32(c.Node()), uint32(t.id), t.memUsed+want, t.cfg.MemBudget)
	cool := c.cfg.TenantShedCooldown
	if cool <= 0 {
		return
	}
	if now >= t.shedUntil {
		t.Sheds++
		t.shedUntil = now.Add(cool)
		c.tel.Flight.Trip(now, telemetry.CatTenantShed, int32(c.Node()), uint32(t.id))
	} else {
		t.shedUntil = now.Add(cool)
	}
	t.armShedExpiry()
}

// armShedExpiry schedules the un-shed kick; breaches extending the
// episode re-arm from the callback so one event is live at a time.
func (t *Tenant) armShedExpiry() {
	if t.shedExpArmd {
		return
	}
	t.shedExpArmd = true
	c := t.ctx
	c.eng.AfterBg(t.shedUntil.Sub(c.eng.Now()), func() {
		t.shedExpArmd = false
		if c.eng.Now() < t.shedUntil {
			t.armShedExpiry() // episode was extended meanwhile
			return
		}
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatTenantShed, int32(c.Node()), uint32(t.id), 0, shedEvOver)
		c.attachAdmit(c.attachQ.Len())
	})
}

// shedGated reports whether this channel's attach must queue: its tenant
// is shedding.
func (ch *Channel) shedGated() bool {
	return ch.tenant != nil && ch.tenant.Shedding()
}

// ---------------------------------------------------------------------------
// Weighted deficit-round-robin at the shared SQ. A shared link in a tenanted
// context owns one sqSched: below the burst the frame posts directly
// (the NIC pipeline arbitrates), above it frames queue per tenant and
// drain on send completions, quantum × weight per round. Per-channel
// FIFO is preserved — a channel's frames all sit in one tenant queue.

type tenantSQ struct {
	items   sim.Queue[*msgRec] // frames waiting here hold their record (holdPostQ)
	deficit int64
}

type sqSched struct {
	c       *Context
	gen     uint64 // bumped on reset so stale completions don't drain
	pending int    // WRs posted and not yet completed
	backlog int    // frames waiting in tenant queues
	queues  map[uint16]*tenantSQ
	ring    []uint16 // round-robin order of backlogged tenant ids
	cur     int
}

// The DRR scheduler's two constants: sqBurst bounds outstanding data WRs
// per shared QP (below it the SQ posts directly, above it frames queue per
// tenant), sqQuantum is the deficit credit in bytes per unit of weight.
const (
	sqBurst   = 4
	sqQuantum = 4096
)

func newSQSched(c *Context) *sqSched {
	return &sqSched{c: c, queues: make(map[uint16]*tenantSQ)}
}

func (s *sqSched) weight(id uint16) int64 {
	if id == 0 || int(id) > len(s.c.tenants) {
		return 1
	}
	return int64(s.c.tenants[id-1].cfg.Weight)
}

// submit either posts the frame directly (idle SQ under the burst) or
// enqueues it on its tenant's queue for DRR drain.
func (s *sqSched) submit(rec *msgRec) {
	if s.pending < sqBurst && s.backlog == 0 {
		s.post(rec)
		return
	}
	id := uint16(0)
	if t := rec.ch.tenant; t != nil {
		id = t.id
		t.DRRQueued++
	}
	q := s.queues[id]
	if q == nil {
		q = &tenantSQ{}
		s.queues[id] = q
	}
	if q.items.Len() == 0 {
		s.ring = append(s.ring, id)
	}
	rec.holds |= holdPostQ
	q.items.Push(rec)
	s.backlog++
	s.drain()
}

// post stamps the record with the arbiter and its generation, so that
// Context.complete returns the burst slot and drains — unless a reset came
// in between.
func (s *sqSched) post(rec *msgRec) {
	s.pending++
	rec.sched, rec.schedGen = s, s.gen
	s.c.flow.post(rec)
}

// drain serves tenant queues deficit-round-robin while the SQ has burst
// room: each visit credits quantum × weight; frames send while the
// deficit covers them; an emptied queue leaves the ring with its deficit
// forfeited (classic DRR, so an idle tenant accrues nothing).
func (s *sqSched) drain() {
	for s.pending < sqBurst && s.backlog > 0 {
		if s.cur >= len(s.ring) {
			s.cur = 0
		}
		id := s.ring[s.cur]
		q := s.queues[id]
		if q.items.Len() == 0 {
			q.deficit = 0
			s.ring = append(s.ring[:s.cur], s.ring[s.cur+1:]...)
			continue
		}
		q.deficit += sqQuantum * s.weight(id)
		for q.items.Len() > 0 && s.pending < sqBurst {
			rec := q.items.Items()[0]
			cost := int64(rec.wr.Len)
			if !rec.ch.closed && q.deficit < cost {
				break
			}
			q.items.Pop()
			s.backlog--
			rec.holds &^= holdPostQ
			if rec.ch.closed {
				s.c.drop(rec, 0) // its window let go at teardown
				continue
			}
			q.deficit -= cost
			s.post(rec)
		}
		if q.items.Len() == 0 {
			q.deficit = 0
			s.ring = append(s.ring[:s.cur], s.ring[s.cur+1:]...)
		} else {
			s.cur++
		}
	}
}

// reset drops queued frames and forgets outstanding completions — the
// shared QP died or was adopted; the windows' replay (requeueUnacked)
// re-submits everything that still matters. A link without an arbiter (nil)
// has nothing queued.
func (s *sqSched) reset() {
	if s == nil {
		return
	}
	s.gen++
	s.pending = 0
	s.backlog = 0
	for _, id := range s.ring { // every backlogged queue, in ring order
		for q := &s.queues[id].items; q.Len() > 0; {
			s.c.drop(q.Pop(), holdPostQ)
		}
	}
	s.queues = make(map[uint16]*tenantSQ)
	s.ring = s.ring[:0]
	s.cur = 0
}

// ---------------------------------------------------------------------------
// XR-Stat TENANT rows.

// tenantRows renders the per-tenant table for XRStat; empty in
// zero-tenant contexts.
func (c *Context) tenantRows() []string {
	if len(c.tenants) == 0 {
		return nil
	}
	rows := make([]string, 0, len(c.tenants)+1)
	rows = append(rows, fmt.Sprintf("%-10s %3s %3s %9s %9s %12s %12s %5s %7s %7s %10s %8s %6s %6s",
		"TENANT", "ID", "WT", "SENT", "RECV", "TXBYTES", "RXBYTES", "INFL", "RSTALL", "WSTALL", "MEMUSED", "REJECTS", "SHEDS", "ASHED"))
	for _, t := range c.tenants {
		rows = append(rows, fmt.Sprintf("%-10s %3d %3d %9d %9d %12d %12d %5d %7d %7d %10d %8d %6d %6d",
			t.cfg.Name, t.id, t.cfg.Weight, t.Sent, t.Recvd, t.TxBytes, t.RxBytes,
			t.inflight, t.RateStalls, t.WinStalls, t.memUsed, t.MemRejects, t.Sheds, t.AttachSheds))
	}
	return rows
}

// TenantDigest renders deterministic per-tenant lines for experiment
// digests (sorted by id; empty without tenants).
func (c *Context) TenantDigest() []string {
	if len(c.tenants) == 0 {
		return nil
	}
	out := make([]string, 0, len(c.tenants))
	for _, t := range c.tenants { // in id order
		out = append(out, fmt.Sprintf("tenant %s sent=%d recv=%d tx=%d rx=%d rstall=%d wstall=%d mem=%d rejects=%d sheds=%d ashed=%d rtt_n=%d rtt_sum=%d",
			t.cfg.Name, t.Sent, t.Recvd, t.TxBytes, t.RxBytes, t.RateStalls, t.WinStalls,
			t.memUsed, t.MemRejects, t.Sheds, t.AttachSheds, t.RTTCount, t.RTTSumNs))
	}
	return out
}
