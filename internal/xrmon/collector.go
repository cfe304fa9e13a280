// Package xrmon is the fleet diagnosis plane (XR-Mon v2): the
// cross-node half of the paper's §VI operations story. Per-node agents
// snapshot the engine-keyed telemetry registry on the existing
// housekeeping tick into fixed-size sliding-window delta rings; a
// central collector ingests the windows, runs anomaly detectors
// (static thresholds and top-share heavy hitters) and
// folds co-occurring symptoms through cross-layer correlation rules
// into ranked incidents — "incast, aggressor node 6", "gray link at
// node 3", "tenant elephant over budget on node 4" — each carrying
// metric-delta evidence, matching flight-recorder dump references and
// the top blame stage, plus a confidence score.
//
// Everything is deterministic and observer-invariant: agents ride the
// ticks the contexts already run, the collector closes an epoch
// synchronously inside the last agent's sample of a round, and no rule
// draws randomness — attaching the plane changes neither the engine's
// event count nor any workload result, and the incident log is
// bit-identical across -j parallelism.
package xrmon

import (
	"fmt"
	"sort"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

type auxKey struct{}

// For returns the engine's collector, creating it on first use. Like
// telemetry.For, the collector is engine-keyed: experiments running on
// concurrent goroutines share nothing.
func For(eng *sim.Engine) *Collector {
	return eng.AuxInit(auxKey{}, func() any { return newCollector(eng) }).(*Collector)
}

// Location places a node for the correlation rules' spread analysis.
type Location struct {
	Rack string // e.g. "pod0-tor1"
	Pod  string // e.g. "pod0"
}

// WatchConfig arms incident detection with the thresholds a world may
// tune. Zero fields take defaults; all thresholds apply to window sums
// over the agents' delta rings.
type WatchConfig struct {
	// OpenAfter is how many consecutive matching epochs a rule needs
	// before its incident opens — debounces single-epoch blips (a burst
	// retransmit spike is not a gray link).
	OpenAfter int
	// CloseAfter is how many quiet epochs close an open incident.
	CloseAfter int
	// GraySymptomMin is the min weighted symptom score (3·retx +
	// 2·corrupt) for a node to count as symptomatic.
	GraySymptomMin int64
}

func (w *WatchConfig) defaults() {
	if w.OpenAfter == 0 {
		w.OpenAfter = 2
	}
	if w.CloseAfter == 0 {
		w.CloseAfter = 4
	}
	if w.GraySymptomMin == 0 {
		w.GraySymptomMin = 6
	}
}

// Collector is the central half of the plane: it owns the per-node
// agents, advances the fleet epoch as sampling rounds complete, and —
// once Watch has armed it — runs the correlation rules at the end of
// every epoch.
type Collector struct {
	eng *sim.Engine
	set *telemetry.Set

	agents []*Agent // registration order — the determinism order
	byNode map[int32]*Agent
	fleet  *Agent

	sampled int
	epoch   int64

	watching bool
	cfg      WatchConfig
	loc      map[int32]Location

	incidents  []*Incident
	open       map[incidentKey]*Incident
	pending    map[incidentKey]*pendingMatch
	logLines   []string
	lastDump   uint64 // Seq of the newest flight dump an incident attached
	onIncident func(*Incident, string)
}

// pendingMatch tracks a rule that is matching but has not yet persisted
// for OpenAfter consecutive epochs.
type pendingMatch struct {
	count int
	epoch int64
}

func newCollector(eng *sim.Engine) *Collector {
	c := &Collector{
		eng:     eng,
		set:     telemetry.For(eng),
		byNode:  make(map[int32]*Agent),
		loc:     make(map[int32]Location),
		open:    make(map[incidentKey]*Incident),
		pending: make(map[incidentKey]*pendingMatch),
	}
	clamp := make([]bool, FleetSlots) // fabric stats are all cumulative
	for i := range clamp {
		clamp[i] = true
	}
	c.fleet = newAgent(c, -1, FleetWatchNames(), clamp, nil, false)
	return c
}

// RegisterAgent attaches (or re-binds) the agent for one node. The
// watch list is fixed at first attach: the node slot table expanded
// against the given prefixes plus one block per tenant. Re-registering
// (a context restart) re-resolves the probes and returns the existing
// agent so its history survives the roll.
func (c *Collector) RegisterAgent(node int32, nicPrefix, ctxPrefix string, tenants []TenantRef) *Agent {
	if a := c.byNode[node]; a != nil {
		a.Rebind()
		return a
	}
	names := NodeWatchNames(nicPrefix, ctxPrefix)
	clamp := make([]bool, 0, len(names)+len(tenants)*TenantSlots)
	for _, def := range nodeSlotDef {
		clamp = append(clamp, !def.gauge)
	}
	for _, t := range tenants {
		names = append(names, TenantWatchNames(ctxPrefix, t.ID)...)
		for range tenantSlotSuffix {
			clamp = append(clamp, true)
		}
	}
	a := newAgent(c, node, names, clamp, tenants, true)
	c.agents = append(c.agents, a)
	c.byNode[node] = a
	return a
}

// Agents returns the per-node agents in registration order.
func (c *Collector) Agents() []*Agent { return c.agents }

// AgentFor returns one node's agent (nil when unregistered).
func (c *Collector) AgentFor(node int32) *Agent { return c.byNode[node] }

// FleetAgent returns the collector's fabric-wide sampler.
func (c *Collector) FleetAgent() *Agent { return c.fleet }

// Epoch reports completed sampling rounds.
func (c *Collector) Epoch() int64 { return c.epoch }

// SetLocation places a node for the spread analysis (rack/pod).
func (c *Collector) SetLocation(node int32, rack, pod string) {
	c.loc[node] = Location{Rack: rack, Pod: pod}
}

// Watch arms incident detection with cfg (zero fields take defaults).
func (c *Collector) Watch(cfg WatchConfig) {
	cfg.defaults()
	c.cfg = cfg
	c.watching = true
}

// OnIncident installs a transition callback: fn fires with "open",
// "escalate" or "close" as incidents change state.
func (c *Collector) OnIncident(fn func(*Incident, string)) { c.onIncident = fn }

// Incidents returns every incident (open and closed) in open order.
func (c *Collector) Incidents() []*Incident { return c.incidents }

// OpenIncidents returns the currently open incidents in open order.
func (c *Collector) OpenIncidents() []*Incident {
	var out []*Incident
	for _, inc := range c.incidents {
		if !inc.Closed {
			out = append(out, inc)
		}
	}
	return out
}

// Log returns the incident transition log — deterministic lines that
// double as the plane's digest.
func (c *Collector) Log() []string { return c.logLines }

// Digest renders the full diagnosis as deterministic lines: the
// transition log followed by one summary line per incident.
func (c *Collector) Digest() []string {
	out := make([]string, 0, len(c.logLines)+len(c.incidents))
	out = append(out, c.logLines...)
	for _, inc := range c.incidents {
		out = append(out, inc.summaryLine())
	}
	return out
}

// noteSample is called by every node agent at the end of Sample. When
// all registered agents have reported, the round closes: the fleet
// agent samples the fabric counters, the rules run, and each node agent
// latches its activity flag — all synchronously inside the last agent's
// housekeeping tick, so the plane adds no engine events of its own.
func (c *Collector) noteSample(now sim.Time) {
	c.sampled++
	if c.sampled < len(c.agents) {
		return
	}
	c.sampled = 0
	c.epoch++
	c.fleet.Sample(now)
	if c.watching {
		c.evaluate(now)
	}
	for _, a := range c.agents {
		a.latchActive()
	}
}

func (c *Collector) logf(format string, args ...any) {
	c.logLines = append(c.logLines, fmt.Sprintf(format, args...))
}

// nodeLabel names a node for culprit strings.
func nodeLabel(node int32) string { return "node" + itoa(int64(node)) }

// pods counts the distinct pods among the located symptomatic nodes.
func (c *Collector) spread(nodes []int32) (racks, pods int) {
	rs := map[string]bool{}
	ps := map[string]bool{}
	for _, n := range nodes {
		loc, ok := c.loc[n]
		if !ok {
			// Unlocated nodes count as their own rack, no pod info.
			rs[nodeLabel(n)] = true
			continue
		}
		rs[loc.Rack] = true
		if loc.Pod != "" {
			ps[loc.Pod] = true
		}
	}
	return len(rs), len(ps)
}

// FleetTable renders the per-node rate table from the agent rings —
// the xr-mon dashboard view.
func (c *Collector) FleetTable() string {
	var b []byte
	b = fmt.Appendf(b, "%-6s %-10s %-10s %-12s %-12s %-6s %-6s %-8s %-5s %-7s %s\n",
		"NODE", "TX/s", "RX/s", "TXB/s", "RXB/s", "RETX", "RNR", "CORRUPT", "KA", "CHANS", "STATUS")
	status := map[int32]string{}
	for _, inc := range c.incidents {
		if inc.Closed {
			continue
		}
		for _, n := range inc.Nodes {
			if status[n] == "" {
				status[n] = inc.Class.String()
			}
		}
	}
	for _, a := range c.agents {
		st := status[a.Node]
		if st == "" {
			st = "ok"
		}
		b = fmt.Appendf(b, "%-6d %-10.0f %-10.0f %-12.0f %-12.0f %-6d %-6d %-8d %-5d %-7d %s\n",
			a.Node, a.WindowRate(SlotMsgsSent), a.WindowRate(SlotMsgsRecv),
			a.WindowRate(SlotBytesSent), a.WindowRate(SlotBytesRecv),
			a.WindowSum(SlotRetx), a.WindowSum(SlotRNRSent), a.WindowSum(SlotCorrupt),
			a.WindowSum(SlotKaFails), a.Abs(SlotChannels), st)
	}
	f := c.fleet
	b = fmt.Appendf(b, "fleet: epoch=%d pause=%d ecn=%d drops=%d corrupted=%d open-incidents=%d\n",
		c.epoch, f.WindowSum(FSlotPauseTx), f.WindowSum(FSlotECN),
		f.WindowSum(FSlotDrops), f.WindowSum(FSlotCorrupted), len(c.OpenIncidents()))
	return string(b)
}

// sortedNodes returns the registered node ids ascending (used by
// exports; the agents slice itself stays in registration order).
func (c *Collector) sortedNodes() []int32 {
	out := make([]int32, 0, len(c.byNode))
	for n := range c.byNode {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
