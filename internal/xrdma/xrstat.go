package xrdma

import (
	"fmt"
	"strconv"
	"strings"

	"xrdma/internal/fabric"
	"xrdma/internal/xrmon"
)

// XRStat renders §VI-B's netstat-like per-connection table for one node: the
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
	// housekeeping ticks).
	if a := c.agent; a.Len() >= 2 {
		fmt.Fprintf(&b, "window(%d ticks): tx=%.0f msg/s %.0f B/s, rx=%.0f msg/s %.0f B/s, retx=%d rnr=%d corrupt=%d ka-fails=%d\n",
			a.Len(),
			a.WindowRate(xrmon.SlotMsgsSent), a.WindowRate(xrmon.SlotBytesSent),
			a.WindowRate(xrmon.SlotMsgsRecv), a.WindowRate(xrmon.SlotBytesRecv),
			a.WindowSum(xrmon.SlotRetx), a.WindowSum(xrmon.SlotRNRSent),
			a.WindowSum(xrmon.SlotCorrupt), a.WindowSum(xrmon.SlotKaFails))
	}
	if c.srq != nil { // an undersized queue must not read as a quiet one (RNR is per row)
		fmt.Fprintf(&b, "srq: %d of %d slots posted, %d grows\n", get("srq_posted"), c.cfg.SRQSize, get("srq_grows"))
	}
	// A lossy capture must not read as a quiet one.
	if n := c.tel.Trace.Dropped(); n > 0 {
		fmt.Fprintf(&b, "timeline truncated: %d events overwritten\n", n)
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
