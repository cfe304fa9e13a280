package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"xrdma/internal/baseline"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
)

// The ladder sends the same message up one rung at a time on the same
// SmallClos 0→5 path, so that what the traced run can only report as
// sim.Run self time is apportioned: a layer's cost is its rung minus the
// rung below.

const ladderSeed = 42

// rung is one built step of the ladder. op issues one operation and calls
// done when it has completed; every rung is driven by the same loop.
type rung struct {
	eng   *sim.Engine
	op    func(done func())
	drain bool        // run the engine to quiescence after every op
	loop  func(n int) // set by the one rung that brings its own loop

	left int
	next func()
	cur  func() // what op was last handed as done
}

func (r *rung) step() {
	r.left--
	if r.left > 0 {
		r.op(r.next)
	}
}

func nop() {}

func (r *rung) runOps(n int) {
	switch {
	case r.loop != nil:
		r.loop(n)
	case r.drain:
		for i := 0; i < n; i++ {
			r.op(nop)
			r.eng.Run()
		}
	default:
		r.left = n
		r.op(r.next)
		r.eng.Run()
	}
}

type rungDef struct {
	name  string
	below string // the rung whose cost is subtracted in the cost table
	big   bool   // size changes the path: also run at 64 KiB
	ctl   bool   // control-path rung: no message size
	build func(size int) *rung
}

var rungs = []rungDef{
	{name: "sim.schedule", build: rungSchedule},
	{name: "fabric.hop", below: "sim.schedule", big: true, build: rungFabricHop},
	{name: "rnic.send", below: "fabric.hop", big: true, build: func(size int) *rung { return rungRNIC(size, rnic.OpSend) }},
	{name: "rnic.read", below: "fabric.hop", big: true, build: func(size int) *rung { return rungRNIC(size, rnic.OpRead) }},
	{name: "baseline.ibv_rtt", below: "rnic.send", build: rungIbv},
	{name: "xrdma.classic_rtt", below: "baseline.ibv_rtt", big: true, build: func(size int) *rung { return rungClassic(size, false, false) }},
	{name: "xrdma.classic_rtt_drain", below: "xrdma.classic_rtt", build: func(size int) *rung { return rungClassic(size, true, false) }},
	{name: "xrdma.mux_rtt", below: "xrdma.classic_rtt", build: rungMux},
	{name: "xrdma.onesided_read", below: "rnic.read", big: true, build: rungOnesidedRead},
	{name: "workload.closedloop", below: "xrdma.classic_rtt", build: rungClosedLoop},
	{name: "tcpnet.rtt", below: "fabric.hop", build: rungTCP},
	{name: "telemetry.observed_rtt", below: "xrdma.classic_rtt", build: func(size int) *rung { return rungClassic(size, false, true) }},
	{name: "verbs.connect", ctl: true, build: rungVerbsConnect},
	{name: "xrdma.connect", below: "verbs.connect", ctl: true, build: rungXrdmaConnect},
	{name: "xrdma.mux_attach", ctl: true, build: rungMuxAttach},
}

type ladderRow struct {
	rung, size                    string
	hostNs, events, allocs, simNs float64
}

type ladder struct {
	rows []ladderRow
	res  *result // every rung metric by name, as a traced run carries them
}

// ladderScale turns -seconds into the factor the rungs' op counts are
// multiplied by.
func ladderScale(seconds float64) float64 { return seconds / refSeconds }

// A rung's ops run in ladderBatches batches; host_ns is the fastest batch,
// the one the host's slow phases touched least. Rungs are not scaled to the
// reference host: per-layer metrics have no bound to hold.
const ladderBatches = 10

func measureRung(d rungDef, size, n int) ladderRow {
	runtime.GC()
	r := d.build(size)
	r.next = r.step
	per := max(1, n/ladderBatches)
	r.runOps(per) // warm-up: attach, fill caches and free-lists
	var ms0, ms1 runtime.MemStats
	host := make([]float64, 0, ladderBatches)
	runtime.ReadMemStats(&ms0)
	f0, s0 := r.eng.Fired(), r.eng.Now()
	for b := 0; b < ladderBatches; b++ {
		t0 := time.Now()
		r.runOps(per)
		host = append(host, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	f1, s1 := r.eng.Fired(), r.eng.Now()
	runtime.ReadMemStats(&ms1)
	ops := float64(per * ladderBatches)
	return ladderRow{
		rung:   d.name,
		hostNs: slices.Min(host),
		events: float64(f1-f0) / ops,
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / ops,
		simNs:  float64(s1.Sub(s0)) / ops,
	}
}

func runLadder(scale float64) *ladder {
	l := &ladder{res: &result{Workload: "ladder", Seed: ladderSeed, Correct: true, Metrics: map[string]metric{}}}
	count := func(n int) int { return max(ladderBatches, int(float64(n)*scale)) }
	add := func(row ladderRow, prefix string) {
		l.rows = append(l.rows, row)
		l.res.put(prefix+"_host_ns", row.hostNs, "ns")
		l.res.put(prefix+"_events", row.events, "count")
		l.res.put(prefix+"_allocs", row.allocs, "count")
	}
	for _, d := range rungs {
		if d.ctl {
			add(measureRung(d, 0, count(300)), d.name)
			continue
		}
		row := measureRung(d, 64, count(20000))
		row.size = "64B"
		add(row, d.name+"_64B")
		if d.big {
			row = measureRung(d, 64<<10, count(2000))
			row.size = "64KiB"
			add(row, d.name+"_64KiB")
		}
	}
	// The paper's Fig. 7 quantity: simulated classic RTT over the
	// zero-overhead middleware's.
	l.res.put("xrdma.overhead_vs_ibv_sim_pct",
		100*(per(l.row("xrdma.classic_rtt", "64B").simNs, l.row("baseline.ibv_rtt", "64B").simNs)-1), "%")
	return l
}

func (l *ladder) row(name, size string) ladderRow {
	for _, r := range l.rows {
		if r.rung == name && r.size == size {
			return r
		}
	}
	return ladderRow{}
}

// print writes every rung and the rung-minus-rung-below cost table.
func (l *ladder) print(w *os.File) {
	l.res.print(w)
	fmt.Fprintf(w, "\n%-26s %-6s %12s %10s %10s %10s   %s\n", "rung", "size", "host_ns", "events", "allocs", "sim_ns", "cost over the rung below (host_ns, events, allocs)")
	for _, r := range l.rows {
		line := fmt.Sprintf("%-26s %-6s %12.1f %10.2f %10.2f %10.1f", r.rung, r.size, r.hostNs, r.events, r.allocs, r.simNs)
		for _, d := range rungs {
			if b := l.row(d.below, r.size); d.name == r.rung && b.rung != "" {
				line += fmt.Sprintf("   %+.1f %+.2f %+.2f over %s", r.hostNs-b.hostNs, r.events-b.events, r.allocs-b.allocs, d.below)
			}
		}
		fmt.Fprintln(w, line)
	}
}

// --- rungs ------------------------------------------------------------------

// sim: Engine.After + Run, nothing else.
func rungSchedule(int) *rung {
	eng := sim.NewEngine()
	return &rung{eng: eng, op: func(done func()) { eng.After(sim.Microsecond, done) }}
}

func newFabric() (*sim.Engine, *fabric.Fabric) {
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), ladderSeed)
	fabric.BuildClos(fab, fabric.SmallClos())
	return eng, fab
}

// sink is the stub endpoint of the fabric rung.
type sink struct {
	want, got int
	done      func()
}

func (s *sink) HandlePacket(*fabric.Packet) {
	if s.got++; s.got == s.want {
		s.got = 0
		s.done()
	}
}

// fabric: Host.Send to a stub endpoint, MTU-sized packets as the RNIC
// would cut them.
func rungFabricHop(size int) *rung {
	eng, fab := newFabric()
	const mtu = 4096
	s := &sink{want: (size + mtu - 1) / mtu}
	fab.Host(5).Attach(s)
	src := fab.Host(0)
	return &rung{eng: eng, op: func(done func()) {
		s.done = done
		for left := size; left > 0; left -= mtu {
			p := fab.NewPacket()
			p.Src, p.Dst, p.Size, p.FlowHash = 0, 5, min(left, mtu), 1
			src.Send(p)
		}
	}}
}

func newNICs() (*fabric.Fabric, *rnic.NIC, *rnic.NIC) {
	eng, fab := newFabric()
	return fab, rnic.New(eng, fab.Host(0), rnic.DefaultConfig()), rnic.New(eng, fab.Host(5), rnic.DefaultConfig())
}

// rnic: ConnectLoopback, QP.PostSend, CQ.PollAppend — a SEND into a posted
// receive, or a READ of a registered region.
func rungRNIC(size int, op rnic.Op) *rung {
	fab, a, b := newNICs()
	qa, qb := rnic.ConnectLoopback(a, b, 128)
	r := &rung{eng: fab.Eng}
	wr := rnic.SendWR{Op: op, Len: size}
	if op == rnic.OpRead {
		mr := b.Mem.Register(size, rnic.RegNonContinuous)
		wr.RAddr, wr.RKey = mr.Base, mr.RKey
	}
	for i := 0; i < 16; i++ {
		must(qb.PostRecv(rnic.RecvWR{ID: uint64(i), Len: size}))
	}
	var rcqes, scqes []rnic.CQE
	qb.RecvCQ.OnCompletion(func() {
		rcqes = qb.RecvCQ.PollAppend(rcqes[:0], 16)
		for _, c := range rcqes {
			must(qb.PostRecv(rnic.RecvWR{ID: c.WRID, Len: size}))
		}
	})
	qa.SendCQ.OnCompletion(func() {
		scqes = qa.SendCQ.PollAppend(scqes[:0], 16)
		for _, c := range scqes {
			if c.Status != rnic.StatusOK {
				panic(fmt.Sprintf("benchmark: ladder CQE %v", c.Status))
			}
			r.cur()
		}
	})
	posted := wr
	r.op = func(done func()) {
		r.cur = done
		posted = wr
		must(qa.PostSend(&posted))
	}
	return r
}

// baseline: the zero-overhead middleware of Fig. 7.
func rungIbv(size int) *rung {
	fab, a, b := newNICs()
	pair := baseline.NewPair(baseline.IbvPingpong, a, b)
	return &rung{eng: fab.Eng, op: func(done func()) { pair.Call(size, done) }}
}

// echoCluster is the world of the xrdma rungs: SmallClos, every node
// listening with a same-size echo.
func echoCluster(mutate func(*xrdma.Config), onAccept func(*xrdma.Channel)) *cluster.Cluster {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(), Seed: ladderSeed,
		Config: func(_ int, cfg *xrdma.Config) {
			if mutate != nil {
				mutate(cfg)
			}
		},
	})
	c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { must(m.Reply(nil, m.Len)) })
		if onAccept != nil {
			onAccept(ch)
		}
	})
	return c
}

func dial(c *cluster.Cluster) *xrdma.Channel {
	var cli *xrdma.Channel
	c.Connect(0, 5, listenPort, func(ch *xrdma.Channel, err error) {
		must(err)
		cli = ch
	})
	c.Eng.Run()
	return cli
}

// sendRung drives SendMsg on an established channel.
func sendRung(c *cluster.Cluster, ch *xrdma.Channel, size int) *rung {
	r := &rung{eng: c.Eng}
	onResp := func(_ *xrdma.Msg, err error) {
		must(err)
		r.cur()
	}
	r.op = func(done func()) {
		r.cur = done
		must(ch.SendMsg(nil, size, onResp))
	}
	return r
}

// xrdma classic channel; drain runs the engine to quiescence after every
// op, which adds the idle polls before the pollers park (the shape of
// BenchmarkMuxSharedQPSend); observed attaches a telemetry collector.
func rungClassic(size int, drain, observed bool) *rung {
	c := echoCluster(nil, nil)
	if observed {
		col := &telemetry.Collector{TraceCap: telemetry.DefaultTraceCap}
		col.Observe(c.Eng, "ladder")
	}
	r := sendRung(c, dial(c), size)
	r.drain = drain
	return r
}

func muxConfig(cfg *xrdma.Config) {
	cfg.QPsPerPeer = 2
	cfg.AttachAdmission = 16
	cfg.ChannelGaugeLimit = 8
}

func rungMux(size int) *rung {
	c := echoCluster(muxConfig, nil)
	ch, err := c.Nodes[0].Ctx.ChannelTo(c.Nodes[5].ID, listenPort)
	must(err)
	return sendRung(c, ch, size)
}

func rungOnesidedRead(size int) *rung {
	var win *xrdma.Window
	c := echoCluster(nil, func(ch *xrdma.Channel) { ch.GrantWindow(win) })
	c.Nodes[5].Ctx.ExposeWindow(size, func(w *xrdma.Window, err error) {
		must(err)
		win = w
	})
	c.Eng.Run()
	ch := dial(c)
	c.Eng.Run()
	rw, ok := ch.PeerWindow(win.ID)
	if !ok {
		panic("benchmark: ladder window grant never arrived")
	}
	r := &rung{eng: c.Eng}
	onRead := func(_ []byte, err error) {
		must(err)
		r.cur()
	}
	r.op = func(done func()) {
		r.cur = done
		ch.ReadRemote(rw, 0, size, onRead)
	}
	return r
}

// workload: the repo's own closed-loop generator at depth 1.
func rungClosedLoop(size int) *rung {
	c := echoCluster(nil, nil)
	g := workload.NewClosedLoop(dial(c), 1, workload.Fixed(size), ladderSeed)
	r := &rung{eng: c.Eng}
	g.OnResult = func(res workload.Result) {
		must(res.Err)
		if r.left--; r.left == 0 {
			g.Stop()
		}
	}
	r.loop = func(n int) {
		r.left = n
		g.Start()
		c.Eng.Run()
	}
	return r
}

// tcpnet: the substrate of the Mock fallback.
func rungTCP(size int) *rung {
	c := echoCluster(nil, nil)
	r := &rung{eng: c.Eng}
	must(c.Nodes[5].TCP.Listen(listenPort, func(conn *tcpnet.Conn) {
		conn.OnMessage = func(m tcpnet.Message) { conn.Send(nil, m.Len, nil) }
	}))
	var cli *tcpnet.Conn
	c.Nodes[0].TCP.Dial(c.Nodes[5].ID, listenPort, func(conn *tcpnet.Conn, err error) {
		must(err)
		cli = conn
	})
	c.Eng.Run()
	cli.OnMessage = func(tcpnet.Message) { r.cur() }
	r.op = func(done func()) {
		r.cur = done
		cli.Send(nil, size, nil)
	}
	return r
}

// verbs: CM.Connect + ConnReq.Accept, both QPs destroyed after each op.
func rungVerbsConnect(int) *rung {
	fab, a, b := newNICs()
	net := verbs.NewCMNetwork()
	cmA := verbs.NewCM(verbs.Open(a), net, fab.Host(a.Node))
	cmB := verbs.NewCM(verbs.Open(b), net, fab.Host(b.Node))
	const depth = 64
	scqA, rcqA := rnic.NewCQ(depth), rnic.NewCQ(depth)
	scqB, rcqB := rnic.NewCQ(depth), rnic.NewCQ(depth)
	var srvQP *rnic.QP
	must(cmB.Listen(listenPort, func(req *verbs.ConnReq) {
		b.CreateQP(depth, depth, scqB, rcqB, nil, func(qp *rnic.QP) {
			req.Accept(qp, func(_ *verbs.Conn, err error) {
				must(err)
				srvQP = qp
			})
		})
	}))
	r := &rung{eng: fab.Eng}
	onConn := func(conn *verbs.Conn, err error) {
		must(err)
		a.DestroyQP(conn.QP)
		b.DestroyQP(srvQP)
		r.cur()
	}
	r.op = func(done func()) {
		r.cur = done
		cmA.Connect(b.Node, listenPort, nil, nil, depth, scqA, rcqA, nil, onConn)
	}
	return r
}

// xrdma: Context.Connect, both ends closed after each op.
func rungXrdmaConnect(int) *rung {
	var srv *xrdma.Channel
	c := echoCluster(nil, func(ch *xrdma.Channel) { srv = ch })
	r := &rung{eng: c.Eng}
	onConn := func(ch *xrdma.Channel, err error) {
		must(err)
		ch.Close()
		srv.Close()
		r.cur()
	}
	r.op = func(done func()) {
		r.cur = done
		c.Connect(0, 5, listenPort, onConn)
	}
	return r
}

// xrdma mux plane: attach one more channel to shared QPs that are already
// up, then close it.
func rungMuxAttach(int) *rung {
	c := echoCluster(muxConfig, nil)
	r := &rung{eng: c.Eng}
	onConn := func(ch *xrdma.Channel, err error) {
		must(err)
		ch.Close()
		r.cur()
	}
	r.op = func(done func()) {
		r.cur = done
		c.Connect(0, 5, listenPort, onConn)
	}
	return r
}
