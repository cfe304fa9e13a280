package bench

import (
	"fmt"

	"xrdma/internal/baseline"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// pingFixture is a two-node X-RDMA echo world.
type pingFixture struct {
	c   *cluster.Cluster
	cli *xrdma.Channel
}

func newPingFixture(sc Scale, label string, mutate func(*xrdma.Config)) *pingFixture {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(), Nodes: 6, Seed: sc.Seed,
		Config: func(node int, cfg *xrdma.Config) {
			cfg.KeepaliveInterval = 0 // quiesce probes during measurement
			if mutate != nil {
				mutate(cfg)
			}
		},
	})
	sc.observe(c.Eng, label)
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, m.Len) })
	})
	var cli *xrdma.Channel
	c.Connect(0, 5, 7000, func(ch *xrdma.Channel, err error) {
		if err != nil {
			panic(err)
		}
		cli = ch
	})
	c.Eng.Run()
	return &pingFixture{c: c, cli: cli}
}

// rtt measures the mean echo round trip for a payload size.
func (f *pingFixture) rtt(size, n int) sim.Duration {
	var total sim.Duration
	done := 0
	var issue func()
	issue = func() {
		start := f.c.Eng.Now()
		f.cli.SendMsg(nil, size, func(m *xrdma.Msg, err error) {
			if err != nil {
				panic(err)
			}
			total += f.c.Eng.Now().Sub(start)
			done++
			if done < n {
				issue()
			}
		})
	}
	issue()
	f.c.Eng.Run()
	if done != n {
		panic(fmt.Sprintf("bench: %d/%d pings", done, n))
	}
	return total / sim.Duration(n)
}

// xrdmaRTT builds a fresh fixture and measures one point.
func xrdmaRTT(sc Scale, label string, mutate func(*xrdma.Config), size, n int) sim.Duration {
	return newPingFixture(sc, label, mutate).rtt(size, n)
}

func fig7Sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Fig7Left reproduces the left panel: xrdma small-msg vs large-msg vs the
// mixed strategy across 2 B – 16 KB (ping-pong RTT, µs per size).
func Fig7Left(sc Scale) Result {
	n := pick(sc, 30, 200)
	sizes := fig7Sizes(2, 16<<10)
	var small, large, mixed []float64
	smallMode := func(cfg *xrdma.Config) { cfg.SmallMsgSize = 32 << 10 }
	largeMode := func(cfg *xrdma.Config) { cfg.SmallMsgSize = 0 }
	fSmall := newPingFixture(sc, "fig7-left/small", smallMode)
	fLarge := newPingFixture(sc, "fig7-left/large", largeMode)
	fMixed := newPingFixture(sc, "fig7-left/mixed", nil)
	for _, s := range sizes {
		small = append(small, fSmall.rtt(s, n).Micros())
		large = append(large, fLarge.rtt(s, n).Micros())
		mixed = append(mixed, fMixed.rtt(s, n).Micros())
	}
	t := Table{
		ID: "E1/Fig7-left", Title: "X-RDMA message modes, ping-pong RTT (µs)",
		Header: []string{"size", "small-msg", "large-msg", "mixed"},
	}
	// Large mode always costs more than small mode (the extra one-sided
	// round), the gap shrinks with size, and mixed tracks small below the
	// 4 KB threshold and large above it.
	largeOverSmall, mixedOverSmall, mixedOverLarge := inf, 0.0, 0.0
	for i, s := range sizes {
		t.Addf(sizeLabel(s), small[i], large[i], mixed[i])
		largeOverSmall = min(largeOverSmall, large[i]/small[i])
		if s <= 4096 {
			mixedOverSmall = max(mixedOverSmall, mixed[i]/small[i])
		} else {
			mixedOverLarge = max(mixedOverLarge, mixed[i]/large[i])
		}
	}
	t.Note("paper: large-msg ≈ +40%% under 128 B, converging above (≤10%% past 128 B); mixed tracks small below the 4 KB threshold")
	last := len(sizes) - 1
	return result(t,
		within("E1/large÷small-min", "large > small", largeOverSmall, above(1), inf),
		within("E1/large÷small-16K", "converging", large[last]/small[last], -inf, below(large[0]/small[0])),
		within("E1/mixed÷small-max-≤4K", "tracks small", mixedOverSmall, -inf, 1.05),
		within("E1/mixed÷large-max->4K", "tracks large", mixedOverLarge, -inf, 1.05))
}

// Fig7Middle reproduces the middle panel: xrdma-BD, xrdma-reqrsp, xio,
// ucx-am-rc, ibv-pingpong and libfabric from 8 B to 4 KB.
func Fig7Middle(sc Scale) Result {
	n := pick(sc, 30, 200)
	sizes := fig7Sizes(8, 4096)
	stacks := []string{"xrdma-BD", "xrdma-reqrsp", "ibv-pingpong", "ucx-am-rc", "libfabric", "xio"}
	rtt := make(map[string][]float64) // µs, by stack name
	fBD := newPingFixture(sc, "fig7-middle/xrdma-BD", nil)
	fRR := newPingFixture(sc, "fig7-middle/xrdma-reqrsp", func(cfg *xrdma.Config) { cfg.ReqRspMode = true })
	pairs := map[string]*baseline.Pair{}
	for _, p := range baseline.Profiles() {
		eng := sim.NewEngine()
		sc.observe(eng, "fig7-middle/"+p.Name)
		fab := fabric.New(eng, fabric.DefaultConfig(), sc.Seed)
		fabric.BuildClos(fab, fabric.SmallClos())
		a := rnic.New(eng, fab.Host(0), rnic.DefaultConfig())
		b := rnic.New(eng, fab.Host(5), rnic.DefaultConfig())
		pairs[p.Name] = baseline.NewPair(p, a, b)
	}
	for _, s := range sizes {
		rtt["xrdma-BD"] = append(rtt["xrdma-BD"], fBD.rtt(s, n).Micros())
		rtt["xrdma-reqrsp"] = append(rtt["xrdma-reqrsp"], fRR.rtt(s, n).Micros())
		for name, pr := range pairs {
			rtt[name] = append(rtt[name], pr.MeasureRTT(s, n).Micros())
		}
	}
	t := Table{ID: "E2/Fig7-middle", Title: "middleware ping-pong RTT (µs), 8 B – 4 KB",
		Header: append([]string{"size"}, stacks...)}
	// At every size ibv is the floor, X-RDMA stays within 15 % of it and
	// beats the other middlewares, and req-rsp costs at least bare data.
	overMin, overMax, rrOverBD, ordered := inf, -inf, inf, true
	for i, s := range sizes {
		row := []any{sizeLabel(s)}
		for _, st := range stacks {
			row = append(row, rtt[st][i])
		}
		t.Addf(row...)
		ibv, bd := rtt["ibv-pingpong"][i], rtt["xrdma-BD"][i]
		ucx, lf, xio := rtt["ucx-am-rc"][i], rtt["libfabric"][i], rtt["xio"][i]
		overMin = min(overMin, (bd/ibv-1)*100)
		overMax = max(overMax, (bd/ibv-1)*100)
		rrOverBD = min(rrOverBD, rtt["xrdma-reqrsp"][i]/bd)
		ordered = ordered && bd <= ucx && ucx < lf && lf < xio
	}
	over := within("E2/BD-over-ibv%-max", "≤10%", overMax, -inf, 15)
	t.Note("paper ordering: ibv < xrdma-BD (%s over ibv) < ucx-am-rc (5.87µs) < libfabric (6.20µs) < xio; xrdma 5.60µs", over.Paper)
	return result(t,
		within("E2/BD-over-ibv%-min", "ibv is the floor", overMin, above(0), inf),
		over,
		shape("E2/BD≤ucx<libfabric<xio", "ordering", ordered),
		within("E2/reqrsp÷BD-min", "req-rsp ≥ bare data", rrOverBD, 1, inf))
}

// Fig7Right reproduces the right panel (4–32 KB).
func Fig7Right(sc Scale) Result {
	n := pick(sc, 20, 100)
	sizes := fig7Sizes(4096, 32<<10)
	stacks := []string{"xrdma", "ibv-pingpong", "ucx-am-rc", "libfabric"}
	rtt := make(map[string][]float64)
	fx := newPingFixture(sc, "fig7-right/xrdma", nil)
	for _, s := range sizes {
		rtt["xrdma"] = append(rtt["xrdma"], fx.rtt(s, n).Micros())
	}
	for _, p := range []baseline.Profile{baseline.IbvPingpong, baseline.UcxAmRc, baseline.Libfabric} {
		eng := sim.NewEngine()
		sc.observe(eng, "fig7-right/"+p.Name)
		fab := fabric.New(eng, fabric.DefaultConfig(), sc.Seed)
		fabric.BuildClos(fab, fabric.SmallClos())
		a := rnic.New(eng, fab.Host(0), rnic.DefaultConfig())
		b := rnic.New(eng, fab.Host(5), rnic.DefaultConfig())
		pr := baseline.NewPair(p, a, b)
		for _, s := range sizes {
			rtt[p.Name] = append(rtt[p.Name], pr.MeasureRTT(s, n).Micros())
		}
	}
	t := Table{ID: "E3/Fig7-right", Title: "large-message ping-pong RTT (µs), 4–32 KB",
		Header: append([]string{"size"}, stacks...)}
	// ibv stays the floor, and the stacks bunch together by 32 KB as wire
	// time dominates.
	overMin := inf
	for i, s := range sizes {
		row := []any{sizeLabel(s)}
		for _, st := range stacks {
			row = append(row, rtt[st][i])
		}
		t.Addf(row...)
		overMin = min(overMin, rtt["xrdma"][i]/rtt["ibv-pingpong"][i])
	}
	last := len(sizes) - 1
	return result(t,
		within("E3/xrdma÷ibv-min", "ibv is the floor", overMin, above(1), inf),
		within("E3/xrdma÷ucx-32K", "stacks bunch together", rtt["xrdma"][last]/rtt["ucx-am-rc"][last], 0.9, 1.1))
}

// TracingOverhead measures bare-data vs req-rsp latency: what req-rsp
// mode's tracing costs (E4, §VII-A).
func TracingOverhead(sc Scale) Result {
	n := pick(sc, 60, 400)
	fB := newPingFixture(sc, "tracing/bare", nil)
	fT := newPingFixture(sc, "tracing/reqrsp", func(cfg *xrdma.Config) { cfg.ReqRspMode = true })
	t := Table{ID: "E4/§VII-A", Title: "tracing overhead: bare-data vs req-rsp (µs)",
		Header: []string{"size", "bare", "req-rsp", "overhead%"}}
	lo, hi := inf, -inf
	for _, s := range []int{64, 512, 4096} {
		b := fB.rtt(s, n).Micros()
		tr := fT.rtt(s, n).Micros()
		pct := (tr - b) / b * 100
		lo, hi = min(lo, pct), max(hi, pct)
		t.Addf(sizeLabel(s), b, tr, pct)
	}
	overhead := within("E4/overhead%-max", "2–4%", hi, -inf, 8)
	t.Note("paper: +%s, ≈200 ns per ping-pong", overhead.Paper)
	return result(t, within("E4/overhead%-min", "tracing costs something", lo, above(0), inf), overhead)
}

func sizeLabel(s int) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dM", s>>20)
	case s >= 1024:
		return fmt.Sprintf("%dK", s>>10)
	default:
		return fmt.Sprintf("%dB", s)
	}
}
