package xrdma

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// The data path's fixed costs and reserves: measured properties of the
// middleware, not deployment choices, so constants rather than Config fields.
const (
	ctrlReserve = 16                   // extra receive buffers and SQ slots for window-exempt control messages (acks, NOPs)
	pollEvery   = 1 * sim.Microsecond  // busy-polling period of the hybrid poller
	pollCost    = 60 * sim.Nanosecond  // CPU cost charged per poll iteration
	perMsgCost  = 100 * sim.Nanosecond // software overhead per dispatched message (X-RDMA's thin data path)
	traceCost   = 50 * sim.Nanosecond  // extra per message in req-rsp mode (§VII-A: ≈200 ns, 2–4% of a ping-pong)
	srqLimitDiv = 2                    // the SRQ asks for its next block with under 1/2 of one left posted (sharedRQ)

	deadlockScan       = 500 * sim.Microsecond // period of the per-context NOP deadlock breaker
	memShrinkIdle      = 100 * sim.Millisecond // a fully free memory-cache region idle this long is given back
	recoverBackoffBase = 1 * sim.Millisecond   // the delay before the first recovery dial (recoverBackoff)
)

// Config mirrors Table III: "online" parameters may be changed on a
// running context through SetFlag (the XR-Adm path); "offline" parameters
// are fixed at context creation.
type Config struct {
	// --- online ---------------------------------------------------------

	// KeepaliveInterval is the idle time after which a zero-byte write
	// probe is sent (keepalive_intv_ms).
	KeepaliveInterval sim.Duration
	// KeepaliveTimeout declares the peer dead when a probe gets no
	// hardware ack for this long.
	KeepaliveTimeout sim.Duration
	// SlowThreshold: operations slower than this are flight-recorded as
	// slow.op incidents (slow_threshold).
	SlowThreshold sim.Duration
	// PollingWarnCycle: a gap between two polls longer than this is a
	// slow-poll incident (polling_warn_cycle).
	PollingWarnCycle sim.Duration
	// TraceSampleMask: a message is traced when (msgID & mask) == 0 and
	// the context is in req-rsp mode. 0 traces everything.
	TraceSampleMask uint64
	// TraceSampleN enables the causal blame plane (req-rsp mode only):
	// every Nth request carries the blame bit end-to-end and every stage
	// stamps residency into its hop log; additionally, a slow-op incident
	// force-samples the next few messages on that channel. 0 disables the
	// plane entirely (the default — the untraced path stays bare).
	TraceSampleN uint64
	// ReqRspMode turns on the tracing header (default off = bare-data,
	// "to push for extreme performance", §VI-A).
	ReqRspMode bool
	// PathDoctor enables the per-channel gray-failure scorer: counter
	// deltas (retransmits, RNR NAKs, corrupt drops, RTT inflation) feed
	// an EWMA score whose verdict (clean/suspect/sick) drives ECMP
	// re-pathing through flow-label rotation.
	PathDoctor bool
	// FilterDropRate / FilterDelay drive the fault-injection Filter.
	FilterDropRate float64
	FilterDelay    sim.Duration

	// --- offline --------------------------------------------------------

	// SmallMsgSize is the inline/rendezvous threshold (small_msg_size),
	// 4 KB by default.
	SmallMsgSize int
	// WindowDepth is the seq-ack in-flight message window per channel.
	WindowDepth int
	// AckEvery: a standalone ack is emitted after this many received
	// messages without reverse traffic.
	AckEvery int
	// AckDelay flushes pending acks after this time even below AckEvery.
	AckDelay sim.Duration
	// FragmentSize splits large RDMA READ/WRITE work requests (§V-C);
	// 64 KB in production.
	FragmentSize int
	// MaxOutstandingWRs is the flow-control queueing limit N (§V-C).
	MaxOutstandingWRs int
	// MRSize is the memory-cache region quantum, its largest region (4 MB; §IV-E).
	MRSize int
	// MemMode selects the registration mode (§VII-F: non-continuous in
	// production).
	MemMode rnic.RegMode
	// MemIsolation turns on canary-guarded allocations (§VI-C).
	MemIsolation bool
	// UseSRQ shares one receive queue across the context's channels
	// (§VII-F: supported, disabled by default — it can reintroduce RNR).
	UseSRQ bool
	// SRQSize caps the shared receive queue (UseSRQ), filled by demand (sharedRQ).
	SRQSize int
	// QPsPerPeer enables QP multiplexing: channels to the same peer node
	// share a pool of at most this many QPs, demultiplexed by the wire
	// header's channel id, with receives posted to the SRQ (UseSRQ is
	// forced on). 0 keeps the legacy one-QP-per-channel layout. This is
	// the RDMAvisor-style fix for §III Issue 1: per-connection state stops
	// scaling with connection count.
	QPsPerPeer int
	// AttachAdmission caps concurrent lazy-channel attach handshakes per
	// context (0 = unlimited): a connection storm at process start is
	// serialized into a deterministic FIFO instead of thundering onto the
	// CM.
	AttachAdmission int
	// ChannelGaugeLimit bounds per-channel telemetry rows: beyond this
	// many gauged channels the context switches to per-peer aggregate
	// gauges so the registry doesn't balloon at 100k channels (0 = every
	// channel gets its own row, the legacy behavior).
	ChannelGaugeLimit int
	// RequestTimeout fails pending requests that got no response (0 =
	// never). Checked by a coarse per-context timer.
	RequestTimeout sim.Duration
	// RequestRetries re-issues a timed-out request (same MsgID, fresh
	// wire sequence) up to this many times before surfacing ErrTimeout,
	// under the channel's retry budget. 0 disables retries entirely.
	// Both ends must run with retries enabled: the receiver's idempotent
	// dedup cache is gated on the same knob.
	RequestRetries int
	// RetryBackoff delays each re-issue, doubling per attempt (0 =
	// immediate re-issue on the timeout scan that caught it).
	RetryBackoff sim.Duration
	// PathRehashLimit bounds flow-label rotations per sick episode; once
	// exhausted the doctor escalates to the channel health machine.
	PathRehashLimit int
	// PathRehashCooldown is the minimum settle time between rotations —
	// a fresh path needs a few scans of symptoms before it is judged.
	PathRehashCooldown sim.Duration
	// MockEnabled lets a channel fall back to TCP when RDMA breaks.
	MockEnabled bool
	// RecoverRetries bounds RDMA re-establishment attempts for a degraded
	// channel before it gives up and falls back to Mock (or tears down).
	// Recovery as a whole is enabled per context via Options.RecoverPort.
	RecoverRetries int
	// RecoverBackoffMax caps the exponential recovery backoff
	// (recoverBackoffBase doubling per attempt, with ±25% jitter).
	RecoverBackoffMax sim.Duration
	// RecoverDialTimeout abandons a single recovery dial that got no
	// REP/REJ (the peer's control plane may be dead with its NIC).
	RecoverDialTimeout sim.Duration
	// FailbackInterval is how often a channel running on the Mock
	// fallback probes RDMA to fail back (0 = stay on Mock forever).
	FailbackInterval sim.Duration
	// StatsInterval drives periodic statistics sampling.
	StatsInterval sim.Duration

	// --- tenancy plane (offline) -----------------------------------------

	// Tenants declares the context's tenant table. Tenant ids are assigned
	// by position (index+1; id 0 is "untenanted"), so both ends of a wire
	// must declare the same table for labels to resolve. Empty = the legacy
	// single-implicit-tenant plane, byte-identical on the wire.
	Tenants []TenantConfig
	// TenantShedCooldown is how long a tenant sheds new attaches after a
	// budget breach; each further breach extends the episode.
	TenantShedCooldown sim.Duration

	// --- hot-upgrade plane (offline) --------------------------------------

	// ProtoVerMin / ProtoVerMax bound the header versions this context
	// offers in the hello handshake (0 = hdrVersion, i.e. the legacy v1
	// plane: no hello is emitted and the wire stays byte-identical to
	// pre-negotiation builds). A dialer with ProtoVerMax > hdrVersion is
	// invalid and clamped to hdrVersionMax. Both sides settle on the
	// highest common version; no overlap is a counted, flight-logged
	// negotiation failure (never a corruption-shaped error).
	ProtoVerMin int
	ProtoVerMax int
	// DrainDeadline bounds Context.Drain's quiesce phase: in-flight
	// requests get this long to complete before the remaining tail is
	// frozen into the handoff blob for post-restart replay.
	DrainDeadline sim.Duration
}

// TenantConfig declares one tenant of the isolation plane. Zero values
// mean "unlimited" for every limit, so a bare {Name: "x"} tenant is
// labelled and observable but unconstrained.
type TenantConfig struct {
	// Name identifies the tenant; at most 8 bytes travel on the wire as
	// the label extension.
	Name string
	// Weight is the DRR scheduling weight at shared SQs (default 1).
	Weight int
	// RateBps is the token-bucket send rate in wire bytes/second (0 =
	// unlimited).
	RateBps int64
	// BurstBytes is the token-bucket depth (default: RateBps/100 min 64KiB).
	BurstBytes int64
	// SendWindow caps the tenant's in-flight windowed frames across all of
	// its channels — the send-window partition (0 = unlimited).
	SendWindow int
	// MemBudget caps the tenant's registered-memory footprint in the buddy
	// pool, counted in block-rounded bytes (0 = unlimited). Exceeding it
	// rejects the allocation with ErrTenantBudget and starts a shed episode.
	MemBudget int64
}

// DefaultConfig returns the production defaults described in the paper.
func DefaultConfig() Config {
	return Config{
		KeepaliveInterval: 10 * sim.Millisecond,
		KeepaliveTimeout:  50 * sim.Millisecond,
		SlowThreshold:     100 * sim.Microsecond,
		PollingWarnCycle:  50 * sim.Microsecond,
		TraceSampleMask:   0,
		TraceSampleN:      0,
		ReqRspMode:        false,
		PathDoctor:        true,

		SmallMsgSize:       4096,
		WindowDepth:        32,
		AckEvery:           8,
		AckDelay:           50 * sim.Microsecond,
		FragmentSize:       64 << 10,
		MaxOutstandingWRs:  64,
		MRSize:             4 << 20,
		MemMode:            rnic.RegNonContinuous,
		MemIsolation:       false,
		UseSRQ:             false,
		SRQSize:            4096,
		QPsPerPeer:         0,
		AttachAdmission:    0,
		ChannelGaugeLimit:  0,
		RequestTimeout:     0,
		RequestRetries:     0,
		RetryBackoff:       0,
		PathRehashLimit:    3,
		PathRehashCooldown: 20 * sim.Millisecond,
		MockEnabled:        false,

		RecoverRetries:     4,
		RecoverBackoffMax:  50 * sim.Millisecond,
		RecoverDialTimeout: 25 * sim.Millisecond,
		FailbackInterval:   100 * sim.Millisecond,

		StatsInterval: 10 * sim.Millisecond,

		TenantShedCooldown: 5 * sim.Millisecond,
		DrainDeadline:      50 * sim.Millisecond,
	}
}

// SetFlag changes an online parameter by name on a running context —
// Table I's xrdma_set_flag, driven in production by XR-Adm. Offline
// parameters are rejected.
func (c *Context) SetFlag(name, value string) error {
	set, ok := onlineFlags[name]
	if !ok {
		if slices.Contains(offlineFlagNames, name) {
			return fmt.Errorf("xrdma: %q is an offline parameter (fixed at context creation)", name)
		}
		return fmt.Errorf("xrdma: unknown flag %q", name)
	}
	if err := set(c, value); err != nil {
		return fmt.Errorf("xrdma: set %s=%q: %w", name, value, err)
	}
	c.flagLog = append(c.flagLog, flagChange{At: c.eng.Now(), Name: name, Value: value})
	return nil
}

// OnlineFlagNames lists the dynamically settable parameters (sorted).
func OnlineFlagNames() []string {
	return slices.Sorted(maps.Keys(onlineFlags))
}

type flagChange struct {
	At    sim.Time
	Name  string
	Value string
}

// Setters of the online flags, by value type. A duration flag names its unit.
func durFlag(unit sim.Duration, field func(*Config) *sim.Duration) func(*Context, string) error {
	return func(c *Context, v string) error {
		var x float64
		_, err := fmt.Sscanf(v, "%g", &x)
		if err == nil {
			*field(&c.cfg) = sim.Duration(x * float64(unit))
		}
		return err
	}
}

func uintFlag(field func(*Config) *uint64) func(*Context, string) error {
	return func(c *Context, v string) error {
		_, err := fmt.Sscanf(v, "%d", field(&c.cfg))
		return err
	}
}

func boolFlag(field func(*Config) *bool) func(*Context, string) error {
	return func(c *Context, v string) error {
		switch v {
		case "on", "true", "1":
			*field(&c.cfg) = true
		case "off", "false", "0":
			*field(&c.cfg) = false
		default:
			return fmt.Errorf("want on/off")
		}
		return nil
	}
}

var onlineFlags = map[string]func(*Context, string) error{
	"keepalive_intv_ms":     durFlag(sim.Millisecond, func(c *Config) *sim.Duration { return &c.KeepaliveInterval }),
	"keepalive_timeout_ms":  durFlag(sim.Millisecond, func(c *Config) *sim.Duration { return &c.KeepaliveTimeout }),
	"slow_threshold_us":     durFlag(sim.Microsecond, func(c *Config) *sim.Duration { return &c.SlowThreshold }),
	"polling_warn_cycle_us": durFlag(sim.Microsecond, func(c *Config) *sim.Duration { return &c.PollingWarnCycle }),
	"trace_sample_mask":     uintFlag(func(c *Config) *uint64 { return &c.TraceSampleMask }),
	"trace_sample_n":        uintFlag(func(c *Config) *uint64 { return &c.TraceSampleN }),
	"reqrsp_mode":           boolFlag(func(c *Config) *bool { return &c.ReqRspMode }),
	"path_doctor":           boolFlag(func(c *Config) *bool { return &c.PathDoctor }),
	"filter_drop_rate": func(c *Context, v string) error {
		var r float64
		if _, err := fmt.Sscanf(v, "%g", &r); err != nil {
			return err
		}
		if r < 0 || r > 1 {
			return fmt.Errorf("rate out of [0,1]")
		}
		c.cfg.FilterDropRate = r
		c.syncFilter()
		return nil
	},
	"filter_delay_us": func(c *Context, v string) error {
		err := durFlag(sim.Microsecond, func(c *Config) *sim.Duration { return &c.FilterDelay })(c, v)
		if err == nil {
			c.syncFilter()
		}
		return err
	},
}

// offlineFlagNames are the parameters SetFlag refuses by name, not as unknown.
var offlineFlagNames = strings.Fields(`use_srq srq_size qps_per_peer attach_admission channel_gauge_limit
	small_msg_size window_depth ack_every ack_delay_us fragment_size max_outstanding mr_size mem_mode
	mem_isolation request_timeout_ms request_retries retry_backoff_ms path_rehash_limit path_rehash_cooldown_ms
	mock_enabled recover_retries recover_backoff_max_ms recover_dial_timeout_ms failback_interval_ms
	stats_interval_ms tenants tenant_shed_cooldown_ms proto_ver_min proto_ver_max drain_deadline_ms`)
