package bench

import (
	"fmt"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

// E21 "blame": causal per-message tracing answers "where did my p99 go?".
// Three arms each inject one known latency cause into a fresh SmallClos
// world while every request rides the blame plane (TraceSampleN=1); the
// top-blamed stage of the aggregate report must name the injected cause:
//
//	incast    7 clients burst into one server — ToR egress queueing
//	          (fabric.queue) must dominate
//	brownout  one spine path silently drops/corrupts under steady load —
//	          RC retransmit recovery (recover.rto) must dominate
//	slowrecv  the server runs a tiny SRQ it cannot refill fast enough —
//	          RNR backoff (recover.rnr) must dominate
//
// Its claims hold the verdicts; the digest is bit-identical across runs
// and -j parallelism.

// blameArm is the outcome of one injected-cause arm.
type blameArm struct {
	Name  string
	Cause string          // what was injected
	Want  telemetry.Stage // the stage that must top the report

	Msgs   int64           // blame-traced messages reconstructed
	Resps  int             // responses the clients consumed
	Top    telemetry.Stage // top-blamed stage of the aggregate
	Digest []string        // the aggregate's deterministic lines
}

// blameKnobs is the common configuration: req-rsp mode with every message
// blame-sampled, no doctor/retry planes (the injected cause must persist
// and the RTT must stay honest), keepalive off.
func blameKnobs(cfg *xrdma.Config) {
	cfg.ReqRspMode = true
	cfg.TraceSampleN = 1
	cfg.PathDoctor = false
	cfg.KeepaliveInterval = 0
	cfg.SlowThreshold = 10 * sim.Millisecond // suspect plane quiet: N=1 samples everything
}

// blameFinish extracts the verdict from the engine-wide aggregate.
func blameFinish(a *blameArm, c *cluster.Cluster) *blameArm {
	b := c.Nodes[0].Ctx.Telemetry().Blame
	a.Top, _ = b.Top()
	a.Msgs = b.Count()
	a.Digest = b.Digest()
	return a
}

// runBlameIncast: 7 clients on a SmallClos burst 8×2KB requests into one
// server every 100 µs — a Pangu-style incast. Every burst converges on
// the server ToR's single 25 Gbps egress port, so switch egress-queue
// residency dominates each request's critical path. DCQCN is disabled so
// the senders keep the queue standing instead of pacing it away.
func runBlameIncast(sc Scale) *blameArm {
	a := &blameArm{Name: "incast", Cause: "ToR egress incast queueing", Want: telemetry.StageFabricQueue}
	nic := rnic.DefaultConfig()
	nic.DCQCN = false
	c := sc.cluster("blame/incast", cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic,
		Nodes:    8,
		Config:   func(_ int, cfg *xrdma.Config) { blameKnobs(cfg) },
	})
	c.ListenAll(7500, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 64) })
	})
	chans := c.Establish(cluster.FanInPairs(8, 4), 7500)
	a.Resps = blameBursts(c, chans, 8, 2048, 100*sim.Microsecond, 5*sim.Millisecond, 8*sim.Millisecond)
	return blameFinish(a, c)
}

// blameBursts sends burst size-byte requests on every channel each tick
// until stopAt, runs the world to horizon and returns the responses.
func blameBursts(c *cluster.Cluster, chans []*xrdma.Channel, burst, size int, tick, stopAt, horizon sim.Duration) int {
	start := c.Eng.Now()
	resps := 0
	every(c.Eng, tick, stopAt, func() {
		for _, ch := range chans {
			for i := 0; i < burst; i++ {
				ch.SendMsg(make([]byte, size), 0, func(m *xrdma.Msg, err error) {
					if err == nil {
						resps++
					}
				})
			}
		}
	})
	c.Eng.RunUntil(start.Add(horizon))
	return resps
}

// runBlameBrownout: the E20 gray failure under the blame plane — the
// exact spine path the client's requests ride silently drops 12% and
// corrupts 5% of packets. RC go-back-N absorbs every loss with a 1 ms
// retransmit timeout, so recover.rto must dominate the traced tail.
func runBlameBrownout(sc Scale) *blameArm {
	a := &blameArm{Name: "brownout", Cause: "spine brownout (loss + corruption)", Want: telemetry.StageRTORecovery}
	c := sc.cluster("blame/brownout", cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   grayNIC(), // RetransTimeout 1 ms, RetryLimit 12
		Nodes:    8,
		Config:   func(_ int, cfg *xrdma.Config) { blameKnobs(cfg) },
	})
	l := newLedger()
	l.serve(c, 7501)
	ch := c.Establish([][2]int{{0, 4}}, 7501)[0]

	const (
		tick    = 500 * sim.Microsecond
		faultAt = 20 * sim.Millisecond
		stopAt  = 120 * sim.Millisecond
		horizon = 160 * sim.Millisecond
	)
	start := c.Eng.Now()
	var id uint64
	every(c.Eng, tick, stopAt, func() {
		l.request(ch, id, 16, nil)
		id++
	})
	chaos.New(c).Schedule([]chaos.Step{{At: faultAt, Name: "blame brownout", Do: flowBrownout(ch)}})
	c.Eng.RunUntil(start.Add(horizon))
	a.Resps = l.settle().Resps
	return blameFinish(a, c)
}

// runBlameSlowRecv: the server shares a 4-deep SRQ across two bursting
// clients — every burst overruns the receive queue, the server RNR-NAKs,
// and the clients sit out the RNR timer before retransmitting. The RNR
// backoff (recover.rnr) must dominate the traced critical paths.
func runBlameSlowRecv(sc Scale) *blameArm {
	a := &blameArm{Name: "slowrecv", Cause: "slow receiver (SRQ exhaustion → RNR)", Want: telemetry.StageRNRRecovery}
	nic := rnic.DefaultConfig()
	nic.RNRTimer = 300 * sim.Microsecond
	c := sc.cluster("blame/slowrecv", cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic,
		Nodes:    8,
		Config: func(node int, cfg *xrdma.Config) {
			blameKnobs(cfg)
			if node == 4 {
				cfg.UseSRQ = true
				cfg.SRQSize = 4
			}
		},
	})
	c.ListenAll(7502, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 64) })
	})
	chans := c.Establish([][2]int{{0, 4}, {1, 4}}, 7502)
	a.Resps = blameBursts(c, chans, 16, 256, 300*sim.Microsecond, 10*sim.Millisecond, 20*sim.Millisecond)
	return blameFinish(a, c)
}

// BlameAttribution runs the three arms and renders the E21 table.
func BlameAttribution(sc Scale) Result {
	t := Table{
		ID:     "E21/Blame",
		Title:  "Blame attribution: injected cause vs top-blamed stage (SmallClos, every message traced)",
		Header: []string{"arm", "injected cause", "msgs", "resps", "top stage", "match"},
	}
	var digest []string
	var claims []Claim
	for _, a := range []*blameArm{runBlameIncast(sc), runBlameBrownout(sc), runBlameSlowRecv(sc)} {
		match := a.Top == a.Want
		t.Addf(a.Name, a.Cause, a.Msgs, a.Resps, a.Top, match)
		digest = append(digest, fmt.Sprintf("arm %s resps=%d", a.Name, a.Resps))
		digest = append(digest, a.Digest...)
		// Too few traced messages or responses means sampling or the load
		// generator broke.
		id := "E21/" + a.Name
		claims = append(claims,
			within(id+"/msgs", "sampled", float64(a.Msgs), 50, inf),
			within(id+"/resps", "load", float64(a.Resps), 50, inf),
			shape(id+"/top-stage", a.Want.String(), match))
	}
	t.Note("top stage = largest total residency across reconstructed critical paths (PFC share and residual excluded)")
	t.Note("each arm is a fresh world; the verdict must name the injected cause for the plane to be trustworthy")
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: claims}
}
