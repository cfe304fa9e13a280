package xrdma

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrmon"
)

// Monitor is the centralized monitoring plane of §VI-B: contexts register
// and periodically push samples; XR-Stat, XR-Ping's connection matrix and
// the per-machine dashboards read from here. Since XR-Mon v2 the monitor
// is a thin veneer over the per-node xrmon agents: registering a context
// attaches an agent to the engine's fleet collector, the housekeeping
// tick drives the agent's delta ring, and the Sample history is a view
// over that ring — the monitor keeps no per-tick state of its own.
type Monitor struct {
	contexts map[fabric.NodeID]*Context
	agents   map[fabric.NodeID]*xrmon.Agent
}

// Sample is one periodic observation of a node.
type Sample struct {
	At          sim.Time
	Channels    int
	QPs         int
	MemOccupied int64
	MemInUse    int64
	MsgsSent    int64
	MsgsRecv    int64
	BytesSent   int64
	BytesRecv   int64
	RNRRecv     int64
	Retransmits int64
	CNPRecv     int64
	SlowPolls   int64
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		contexts: make(map[fabric.NodeID]*Context),
		agents:   make(map[fabric.NodeID]*xrmon.Agent),
	}
}

// register attaches a context and its xrmon agent. A restart re-registers
// the same node: the collector keeps the agent (and its window history)
// and re-binds its probes against the fresh gauge registrations.
func (m *Monitor) register(c *Context) {
	m.contexts[c.Node()] = c
	node := int32(c.Node())
	var trefs []xrmon.TenantRef
	for _, t := range c.Tenants() {
		trefs = append(trefs, xrmon.TenantRef{ID: t.ID(), Label: t.Name()})
	}
	m.agents[c.Node()] = xrmon.For(c.eng).RegisterAgent(
		node, fmt.Sprintf("rnic.%d.", node), c.track+".", trefs)
}

// Agent returns the xrmon agent sampling a node (nil if unregistered).
func (m *Monitor) Agent(id fabric.NodeID) *xrmon.Agent { return m.agents[id] }

// Context returns a registered context by node.
func (m *Monitor) Context(id fabric.NodeID) *Context { return m.contexts[id] }

// Nodes lists registered nodes in order.
func (m *Monitor) Nodes() []fabric.NodeID {
	out := make([]fabric.NodeID, 0, len(m.contexts))
	for id := range m.contexts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sample drives the node's xrmon agent, which reads the registry once
// into its delta ring.
func (m *Monitor) sample(c *Context) {
	if a := m.agents[c.Node()]; a != nil {
		a.Sample(c.eng.Now())
	}
}

// sampleAt reconstructs the observation k housekeeping ticks ago (0 = the
// latest) from the agent's absolute watermarks minus the deltas since. A
// counter that reset inside the window (a NIC restart; the agent clamps
// that delta to zero) reads as its post-reset value before the reset too.
func sampleAt(a *xrmon.Agent, k int) Sample {
	abs := func(slot int) int64 { return a.Abs(slot) - a.LastN(slot, k) }
	return Sample{
		At:          a.At(k),
		Channels:    int(abs(xrmon.SlotChannels)),
		QPs:         int(abs(xrmon.SlotQPs)),
		MemOccupied: abs(xrmon.SlotMemOccupied),
		MemInUse:    abs(xrmon.SlotMemInUse),
		MsgsSent:    abs(xrmon.SlotMsgsSent),
		MsgsRecv:    abs(xrmon.SlotMsgsRecv),
		BytesSent:   abs(xrmon.SlotBytesSent),
		BytesRecv:   abs(xrmon.SlotBytesRecv),
		RNRRecv:     abs(xrmon.SlotRNRRecv),
		Retransmits: abs(xrmon.SlotRetx),
		CNPRecv:     abs(xrmon.SlotCNPRecv),
		SlowPolls:   abs(xrmon.SlotSlowPolls),
	}
}

// History returns a node's samples over the agent's window — the last
// xrmon.Window housekeeping ticks at most — oldest first.
func (m *Monitor) History(node fabric.NodeID) []Sample {
	a := m.agents[node]
	if a == nil {
		return nil
	}
	out := make([]Sample, a.Len())
	for k := range out {
		out[len(out)-1-k] = sampleAt(a, k)
	}
	return out
}

// Latest returns a node's most recent sample; ok is false before the
// first housekeeping tick.
func (m *Monitor) Latest(node fabric.NodeID) (Sample, bool) {
	a := m.agents[node]
	if a == nil || a.Len() == 0 {
		return Sample{}, false
	}
	return sampleAt(a, 0), true
}

// --- XR-Stat (§VI-B) ----------------------------------------------------------

// XRStat renders the netstat-like per-connection table for one node: the
// header reads the context gauges, and the rows are what the registry
// collector publishes — the same limit walk (Context.rows), the same fields
// (Channel.row) — without the detour through names.
func XRStat(c *Context) string {
	reg := c.tel.Reg
	get := func(name string) int64 {
		v, _ := reg.Value(c.track + "." + name)
		return v
	}
	var b strings.Builder
	fmt.Fprintf(&b, "node %d: %d channels, mem occupy=%d in-use=%d, qp-cache=%d, drain=%s\n",
		c.Node(), get("channels"), get("mem_occupied"), get("mem_inuse"), get("qp_cache"),
		DrainState(get("drain_state")))
	// Windowed rates from the node's xrmon agent ring (the last few
	// housekeeping ticks), when the context is monitored.
	if c.monitor != nil {
		if a := c.monitor.Agent(c.Node()); a != nil && a.Len() >= 2 {
			fmt.Fprintf(&b, "window(%d ticks): tx=%.0f msg/s %.0f B/s, rx=%.0f msg/s %.0f B/s, retx=%d rnr=%d corrupt=%d ka-fails=%d\n",
				a.Len(),
				a.WindowRate(xrmon.SlotMsgsSent), a.WindowRate(xrmon.SlotBytesSent),
				a.WindowRate(xrmon.SlotMsgsRecv), a.WindowRate(xrmon.SlotBytesRecv),
				a.WindowSum(xrmon.SlotRetx), a.WindowSum(xrmon.SlotRNRSent),
				a.WindowSum(xrmon.SlotCorrupt), a.WindowSum(xrmon.SlotKaFails))
		}
	}
	if c.srq != nil { // an undersized queue must not read as a quiet one (RNR is per row)
		fmt.Fprintf(&b, "srq: %d of %d slots posted, %d grows\n", get("srq_posted"), c.cfg.SRQSize, get("srq_grows"))
	}
	// A lossy capture must not read as a quiet one.
	if n := c.tel.Trace.Dropped(); n > 0 {
		fmt.Fprintf(&b, "timeline truncated: %d events overwritten\n", n)
	}
	if n := c.log.Dropped(); n > 0 {
		fmt.Fprintf(&b, "log truncated: %d lines overwritten\n", n)
	}
	fmt.Fprintf(&b, "%-6s %-6s %-9s %-9s %-10s %-10s %-7s %-6s %-6s %-6s %-8s %-6s %-6s %-6s %-6s %-9s %-6s %-4s %-5s %-8s\n",
		"QPN", "PEER", "SENT", "RECV", "TXBYTES", "RXBYTES", "STALLS", "RNR", "RETX",
		"SCORE", "VERDICT", "REHASH", "RETRY", "READS", "WRITES", "RDBYTES", "RAERRS",
		"VER", "CAPS", "DRAIN")
	var aggs strings.Builder
	folded := c.rows(func(ch *Channel) {
		// Muxed rows print the channel id; the wire QPN changes across
		// shared-QP recoveries and is not the channel's identity.
		label := strconv.Itoa(int(ch.QPN()))
		if ch.cid != 0 {
			label = "m" + strconv.Itoa(int(ch.cid))
		}
		r := make(map[string]int64, 24)
		ch.row(func(field string, v int64) { r[field] = v })
		fmt.Fprintf(&b, "%-6s %-6d %-9d %-9d %-10d %-10d %-7d %-6d %-6d %-6.2f %-8s %-6d %-6d %-6d %-6d %-9d %-6d %-4d %-5s %-8s\n",
			label, r["peer"], r["sent"], r["recv"], r["txbytes"], r["rxbytes"],
			r["stalls"], r["rnr"], r["retx"],
			float64(r["path_score"])/100, PathVerdict(r["path_verdict"]).String(),
			r["rehashes"], r["req_retries"],
			r["reads"], r["writes"], r["rdbytes"], r["raerrs"],
			r["ver"], fmt.Sprintf("%#x", r["caps"]), DrainState(r["drain"]))
	}, func(peer fabric.NodeID, a peerAgg) {
		fmt.Fprintf(&aggs, "%-8d %-6d %-9d %-9d %-10d %-10d %-6d\n", peer, a[0], a[1], a[2], a[3], a[4], a[5])
	})
	if folded > 0 {
		fmt.Fprintf(&b, "(+%d channels above ChannelGaugeLimit=%d, folded into per-peer aggregates)\n",
			folded, c.cfg.ChannelGaugeLimit)
		fmt.Fprintf(&b, "%-8s %-6s %-9s %-9s %-10s %-10s %-6s\n",
			"PEERAGG", "CHANS", "SENT", "RECV", "TXBYTES", "RXBYTES", "RETRY")
		b.WriteString(aggs.String())
	}
	for _, row := range c.tenantRows() {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// --- XR-Ping connection matrix (§VI-B) -----------------------------------------

// PingMatrix pings every registered pair that shares a channel and returns
// RTTs in a matrix keyed by [src][dst]; entries without a channel are
// absent. done fires when all outstanding pings resolve.
func (m *Monitor) PingMatrix(done func(map[fabric.NodeID]map[fabric.NodeID]sim.Duration)) {
	result := make(map[fabric.NodeID]map[fabric.NodeID]sim.Duration)
	outstanding := 0
	finished := false
	check := func() {
		if outstanding == 0 && finished {
			done(result)
		}
	}
	for _, id := range m.Nodes() { // ascending: issue order decides the RTTs
		seen := make(map[fabric.NodeID]bool)
		for _, ch := range m.contexts[id].Channels() {
			if seen[ch.Peer] || ch.Closed() {
				continue
			}
			seen[ch.Peer] = true
			src, dst := id, ch.Peer
			outstanding++
			ch.Ping(func(rtt, _ sim.Duration, err error) {
				outstanding--
				if err == nil {
					if result[src] == nil {
						result[src] = make(map[fabric.NodeID]sim.Duration)
					}
					result[src][dst] = rtt
				}
				check()
			})
		}
	}
	finished = true
	check()
}

// RenderMatrix prints a ping matrix with microsecond entries.
func RenderMatrix(mx map[fabric.NodeID]map[fabric.NodeID]sim.Duration, nodes []fabric.NodeID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "")
	for _, d := range nodes {
		fmt.Fprintf(&b, "%8d", d)
	}
	b.WriteByte('\n')
	for _, s := range nodes {
		fmt.Fprintf(&b, "%6d", s)
		for _, d := range nodes {
			if rtt, ok := mx[s][d]; ok {
				fmt.Fprintf(&b, "%7.1fu", rtt.Micros())
			} else {
				fmt.Fprintf(&b, "%8s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
