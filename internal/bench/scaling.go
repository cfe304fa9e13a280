package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// QPScaling is the RNIC context-cache sweep (§VII-F "Influence of RNIC
// cache is limited"): it measures ping latency while cycling round-robin
// over N QPs so the on-NIC context cache thrashes. Paper: <10% impact up
// to 60 K QPs.
func QPScaling(sc Scale) Result {
	counts := []int{64, 512, 2048, 8192}
	pings := 400
	if sc.Full {
		counts = append(counts, 30000, 60000)
		pings = 2000
	}
	var latency []float64 // µs, per QP count
	for _, n := range counts {
		eng, a, b := rawPair(sc, fmt.Sprintf("qpscale/%d", n))
		qps := make([][2]*rnic.QP, n)
		for i := range qps {
			qa, qb := rnic.ConnectLoopback(a, b, 8)
			qb.PostRecv(rnic.RecvWR{ID: 1, Len: 4096})
			qps[i] = [2]*rnic.QP{qa, qb}
		}
		var total sim.Duration
		done := 0
		var issue func(i int)
		issue = func(i int) {
			pair := qps[i%n]
			start := eng.Now()
			pair[1].RecvCQ.OnCompletion(func() {
				for range pair[1].RecvCQ.Poll(8) {
					total += eng.Now().Sub(start)
					done++
					pair[1].PostRecv(rnic.RecvWR{ID: 1, Len: 4096})
					if done < pings {
						issue(i + 1)
					}
				}
			})
			pair[0].PostSend(&rnic.SendWR{Op: rnic.OpSend, Len: 64, Unsignaled: true})
		}
		issue(0)
		eng.Run()
		latency = append(latency, (total / sim.Duration(done)).Micros())
	}
	first := latency[0]
	last := latency[len(latency)-1]
	t := Table{ID: "E11/§VII-F", Title: "QP count vs one-way latency (context cache)",
		Header: []string{"QPs", "latency(µs)", "vs 64 QPs"}}
	for i, n := range counts {
		t.Addf(n, latency[i], pct(latency[i], first))
	}
	// The largest sweep point degrades against the first, but by under 10 %
	// (no degradation at all would mean the cache model is inert).
	worst := within("E11/worst-degradation%", "<10%", (last-first)/first*100, above(0), below(10))
	t.Note("paper: cache influence %s up to 60K QPs", worst.Paper)
	return result(t, worst)
}

func pct(v, base float64) string {
	return fmt.Sprintf("%+.1f%%", (v-base)/base*100)
}

// SRQTradeoff is the shared-receive-queue trade-off (§VII-F): it builds a
// 16-channel server both ways and measures the receive buffers registered
// and the RNR NAKs under burst pressure — the risk that keeps SRQ
// disabled by default.
func SRQTradeoff(sc Scale) Result {
	clients := 8
	run := func(useSRQ bool) (memMB float64, rnrs int64) {
		label := "srq/per-channel"
		if useSRQ {
			label = "srq/shared"
		}
		c := sc.cluster(label, cluster.Options{
			Topology: fabric.ClusterClos(clients + 1), Nodes: clients + 1,
			Config: func(node int, cfg *xrdma.Config) {
				cfg.KeepaliveInterval = 0
				if node == 0 && useSRQ {
					cfg.UseSRQ = true
					// Undersized on purpose: shared queues are sized
					// for the average, and bursts overrun them.
					cfg.SRQSize = 16
				}
			},
		})
		srv := c.Nodes[0].Ctx
		srv.OnChannel(func(ch *xrdma.Channel) {
			ch.OnMessage(func(m *xrdma.Msg) {
				// Application work between polls: with a shared queue
				// this is what lets synchronized bursts outrun reposting.
				srv.InjectWork(2 * sim.Microsecond)
				m.Reply(nil, 8)
			})
		})
		srv.Listen(7000)
		chans := c.Establish(cluster.FanInPairs(clients+1, 0), 7000)
		memMB = float64(srv.Mem.InUseBytes) / 1e6
		// Synchronized bursts from all clients.
		for round := 0; round < 20; round++ {
			for _, ch := range chans {
				for k := 0; k < 16; k++ {
					ch.SendMsg(nil, 512, nil)
				}
			}
			c.Eng.RunFor(500 * sim.Microsecond)
		}
		c.Eng.RunFor(100 * sim.Millisecond)
		rnrs = c.Nodes[0].NIC.Counters.RNRNakSent
		return memMB, rnrs
	}
	perMem, perRNRs := run(false)
	srqMem, srqRNRs := run(true)
	t := Table{ID: "E12/§VII-F", Title: "SRQ trade-off: memory vs RNR risk",
		Header: []string{"mode", "recv mem (MB)", "RNR NAKs"}}
	t.Addf("per-channel RQ", perMem, perRNRs)
	t.Addf("SRQ (undersized)", srqMem, srqRNRs)
	t.Note("paper: SRQ cuts memory but violates the RNR-free principle; disabled by default")
	return result(t,
		within("E12/SRQ-mem-MB", "cuts memory", srqMem, -inf, below(perMem/2)),
		within("E12/per-channel-RNR-NAKs", "RNR-free", float64(perRNRs), 0, 0),
		within("E12/SRQ-RNR-NAKs", "violates RNR-free", float64(srqRNRs), above(0), inf))
}

// MemoryModes reproduces the non-continuous / continuous / hugepage
// comparison (§VII-F): comparable data-path latency (a 64 KB ping), very
// different registration behaviour (continuous allocation is the one that
// triggers reclaim stalls at scale).
func MemoryModes(sc Scale) Result {
	n := pick(sc, 20, 100)
	var costs []float64 // ms to register a 64 MB cache, per mode
	var claims []Claim
	t := Table{ID: "E13/§VII-F", Title: "memory registration modes",
		Header: []string{"mode", "reg 64MB (ms)", "64KB ping (µs)"}}
	base := 0.0
	for i, mode := range []rnic.RegMode{rnic.RegNonContinuous, rnic.RegContinuous, rnic.RegHugePage} {
		mode := mode
		cost := float64(rnic.RegCost(64<<20, mode)) / 1e6
		lat := newPingFixture(sc, "memmodes/"+mode.String(), func(cfg *xrdma.Config) { cfg.MemMode = mode }).rtt(64<<10, n).Micros()
		costs = append(costs, cost)
		t.Addf(mode.String(), cost, lat)
		// Data-path latency comparable across modes (±5 %).
		if i == 0 {
			base = lat
		}
		claims = append(claims, within("E13/"+mode.String()+"-ping-µs", "comparable", lat, base*0.95, base*1.05))
	}
	t.Note("paper: non-continuous performs comparably with fewer fragmentation issues; X-RDMA avoids continuous physical memory")
	// Continuous registration is the most expensive; hugepage cheapest.
	return result(t, append(claims,
		within("E13/continuous-reg-ms", "most expensive", costs[1], above(costs[0]), inf),
		within("E13/hugepage-reg-ms", "cheapest", costs[2], -inf, below(costs[0])))...)
}

// MixedFootprint is the mixed-message memory comparison (E14, §VII-A): it
// measures registered receive memory when a 32 KB workload runs (a) fully
// inline (small-message mode sized for the payload) versus (b) the mixed
// strategy (4 KB buffers + on-demand rendezvous), across window depths.
// Paper: the large path needs only 1–10% of the small path's memory
// depending on CQ depth.
func MixedFootprint(sc Scale) Result {
	var ratios []float64 // mixed/small %, per depth
	var claims []Claim
	t := Table{ID: "E14/§VII-A", Title: "mixed-message memory footprint (64 KB payloads)",
		Header: []string{"depth", "small-mode (MB)", "mixed (MB)", "mixed/small %"}}
	depths := []int{16, 32, 64}
	payload := 64 << 10
	for _, d := range depths {
		run := func(smallMode bool) float64 {
			label := fmt.Sprintf("footprint/depth%d-mixed", d)
			if smallMode {
				label = fmt.Sprintf("footprint/depth%d-small", d)
			}
			c := sc.cluster(label, cluster.Options{
				Topology: fabric.SmallClos(), Nodes: 8,
				Config: func(node int, cfg *xrdma.Config) {
					cfg.KeepaliveInterval = 0
					cfg.WindowDepth = d
					cfg.MRSize = 256 << 10
					if smallMode {
						cfg.SmallMsgSize = payload
					}
				},
			})
			c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
				ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 8) })
			})
			// 7 clients → node 0's peers; measure client 0's footprint
			// with channels to all others (full mesh from node 0).
			pairs := [][2]int{}
			for j := 1; j < 8; j++ {
				pairs = append(pairs, [2]int{0, j})
			}
			// Push some traffic so rendezvous staging is exercised.
			for _, ch := range c.Establish(pairs, 7000) {
				for k := 0; k < 4; k++ {
					ch.SendMsg(nil, payload, nil)
				}
			}
			c.Eng.Run()
			return float64(c.Nodes[0].NIC.Mem.PeakRegisteredBytes) / 1e6
		}
		small := run(true)
		mixed := run(false)
		ratios = append(ratios, mixed/small*100)
		t.Addf(d, small, mixed, mixed/small*100)
		claims = append(claims, within(fmt.Sprintf("E14/depth%d-mixed÷small%%", d), "1–10%", mixed/small*100, 1, 15))
	}
	t.Note("paper: large-message path needs %s of small-mode memory depending on CQ depth", claims[0].Paper)
	// Deeper windows widen the gap (more pre-posted buffers).
	last := ratios[len(ratios)-1]
	return result(t, append(claims, within("E14/deepest-mixed÷small%", "falls with depth", last, -inf, below(ratios[0])))...)
}

// LoCComparison is the programming-simplification comparison (§VII-B): it
// counts the example sources, the same ping-pong written on X-RDMA's API
// versus raw verbs (paper: ~40 LoC vs ~200+, and 2000→40 for Pangu's data
// plane).
func LoCComparison(Scale) Result {
	_, self, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(self), "..", "..")
	count := func(rel string) int {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return 0
		}
		n := 0
		for _, line := range strings.Split(string(b), "\n") {
			s := strings.TrimSpace(line)
			if s == "" || strings.HasPrefix(s, "//") {
				continue
			}
			n++
		}
		return n
	}
	quick, raw := count("examples/quickstart/main.go"), count("examples/rawverbs/main.go")
	saving := 0.0
	if raw > 0 {
		saving = float64(raw-quick) / float64(raw) * 100
	}
	// The API must at least halve the program.
	quickC := within("E16/quickstart-LoC", "~40 (50 for sockets)", float64(quick), -inf, below(float64(raw/2)))
	t := Table{ID: "E16/§VII-B", Title: "programming simplification (ping-pong LoC)",
		Header: []string{"program", "LoC", "paper"}}
	t.Addf("X-RDMA quickstart", quick, quickC.Paper)
	t.Addf("raw verbs", raw, "≥200")
	t.Addf("saving (%)", saving, "")
	return result(t, quickC)
}
