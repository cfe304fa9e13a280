package bench

import (
	"fmt"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// chaosClass is the outcome of one fault class of the robustness drill: a
// steady request load between a cross-ToR node pair while the chaos
// scheduler injects one class of fault, and (for transient classes) heals
// it. The acceptance bar is the paper's §VI-C availability story —
// transient faults end back on RDMA, permanent RDMA loss ends on the Mock
// fallback, and in either case not a single message is lost or delivered
// twice.
type chaosClass struct {
	Name    string
	Want    xrdma.HealthState
	Final   xrdma.HealthState
	FaultAt sim.Time
	// Detect is fault→first health transition; Settle is fault→last
	// transition (the channel's recovery timeline has gone quiet). Both
	// are zero when the fault never perturbed the channel (ECMP absorbed
	// it).
	Detect sim.Duration
	Settle sim.Duration
	tally

	// Timeline is the health-transition log ("t=... state"), the piece of
	// the run the determinism test compares bit-for-bit across runs.
	Timeline []string
	ChaosLog []string
}

// chaosKnobs compresses every failure-detection and recovery clock so a
// full degrade→recover→failback cycle fits a ~1 s drill horizon. The
// ratios between the clocks mirror production (keepalive ≪ dial timeout ≪
// grace), only the absolute scale shrinks.
func chaosKnobs(_ int, cfg *xrdma.Config) {
	cfg.MockEnabled = true
	cfg.KeepaliveInterval = 2 * sim.Millisecond
	cfg.KeepaliveTimeout = 8 * sim.Millisecond
	cfg.RecoverRetries = 8
	cfg.RecoverBackoffMax = 8 * sim.Millisecond
	cfg.RecoverDialTimeout = 5 * sim.Millisecond
	cfg.FailbackInterval = 25 * sim.Millisecond
}

// chaosNIC shortens the RC retry horizon to match: (RetryLimit+2)·RTO is
// the hardware's own failure-detection bound.
func chaosNIC() rnic.Config {
	nic := rnic.DefaultConfig()
	nic.RetransTimeout = 2 * sim.Millisecond
	nic.RetryLimit = 3
	return nic
}

// runChaosClass drives one fault class on a fresh SmallClos world. The
// client (node 0, pod0-tor0) talks to the server (node 4, pod0-tor1), so
// every byte crosses the leaf tier the faults target.
func runChaosClass(sc Scale, name string, want xrdma.HealthState, steps []chaos.Step) *chaosClass {
	cl := &chaosClass{Name: name, Want: want}
	c := sc.cluster("robust/"+name, cluster.Options{
		Topology:    fabric.SmallClos(),
		NICCfg:      chaosNIC(),
		Nodes:       8,
		Config:      chaosKnobs,
		MockPort:    9300,
		RecoverPort: 9400,
	})
	eng := c.Eng
	l := newLedger()
	l.serve(c, 7300)
	ch := c.Establish([][2]int{{0, 4}}, 7300)[0]

	var transAt []sim.Time
	ch.OnHealthChange(func(h xrdma.HealthState) {
		transAt = append(transAt, eng.Now())
		cl.Timeline = append(cl.Timeline, fmt.Sprintf("t=%v %v", eng.Now(), h))
	})

	// Steady request load: one 16-byte request every 500 µs until
	// sendStop, each carrying its own id so the server can count exact
	// deliveries. The drill keeps sending straight through the outage —
	// that backlog is precisely what the seq-ack window must replay
	// exactly once.
	const (
		tickEvery = 500 * sim.Microsecond
		sendStop  = 450 * sim.Millisecond
		horizon   = 1000 * sim.Millisecond
	)
	start := eng.Now()
	var nextID uint64
	every(eng, tickEvery, sendStop, func() {
		l.request(ch, nextID, 16, nil)
		nextID++
	})

	inj := chaos.New(c)
	inj.Schedule(steps)

	eng.RunUntil(start.Add(horizon))

	cl.Final = ch.Health()
	if ch.Mocked() && cl.Final == xrdma.HealthRecovering {
		// The horizon can land inside one of the periodic failback probe
		// windows; with the mock conn still attached the channel is
		// serving on the fallback the whole time, so report that.
		cl.Final = xrdma.HealthFallback
	}
	cl.ChaosLog = inj.Digest()
	if len(inj.Log) > 0 {
		cl.FaultAt = inj.Log[0].At
		// First/last health transition after the first fault.
		var firstT, lastT sim.Time
		for _, ev := range transAt {
			if ev < cl.FaultAt {
				continue
			}
			if firstT == 0 {
				firstT = ev
			}
			lastT = ev
		}
		if firstT != 0 {
			cl.Detect = firstT.Sub(cl.FaultAt)
			cl.Settle = lastT.Sub(cl.FaultAt)
		}
	}
	cl.tally = l.settle()
	return cl
}

// ChaosDrill reproduces the §VI-C robustness story as five fault classes
// plus an ECMP-absorbed control.
func ChaosDrill(sc Scale) Result {
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

	classes := []struct {
		name  string
		want  xrdma.HealthState
		steps []chaos.Step
	}{
		{"ecmp-reroute", xrdma.HealthHealthy, []chaos.Step{
			{At: ms(50), Name: "leaf0 uplink down", Do: func(i *chaos.Injector) { i.LinkDown("pod0-tor0", "pod0-leaf0") }},
			{At: ms(250), Name: "leaf0 uplink up", Do: func(i *chaos.Injector) { i.LinkUp("pod0-tor0", "pod0-leaf0") }},
		}},
		{"hostlink-flap", xrdma.HealthHealthy, []chaos.Step{
			{At: ms(50), Name: "server cable out", Do: func(i *chaos.Injector) { i.HostLinkDown(4) }},
			{At: ms(110), Name: "server cable in", Do: func(i *chaos.Injector) { i.HostLinkUp(4) }},
		}},
		{"leaf-partition", xrdma.HealthHealthy, []chaos.Step{
			{At: ms(50), Name: "both leaves down", Do: func(i *chaos.Injector) {
				i.SwitchDown("pod0-leaf0")
				i.SwitchDown("pod0-leaf1")
			}},
			{At: ms(130), Name: "both leaves up", Do: func(i *chaos.Injector) {
				i.SwitchUp("pod0-leaf0")
				i.SwitchUp("pod0-leaf1")
			}},
		}},
		{"brownout", xrdma.HealthHealthy, []chaos.Step{
			{At: ms(50), Name: "flaky optic", Do: func(i *chaos.Injector) {
				i.Brownout("pod0-tor0", "pod0-leaf0", 0.30, 0.05, 20*sim.Microsecond)
			}},
			{At: ms(250), Name: "optic replaced", Do: func(i *chaos.Injector) { i.ClearBrownout("pod0-tor0", "pod0-leaf0") }},
		}},
		{"node-restart", xrdma.HealthHealthy, []chaos.Step{
			{At: ms(50), Name: "server crash", Do: func(i *chaos.Injector) { i.NodeCrash(4) }},
			{At: ms(120), Name: "server reboot", Do: func(i *chaos.Injector) { i.NodeRestart(4) }},
		}},
		{"nic-loss-permanent", xrdma.HealthFallback, []chaos.Step{
			{At: ms(50), Name: "server HCA dies", Do: func(i *chaos.Injector) { i.NicCrash(4) }},
		}},
	}

	t := Table{
		ID:     "E19/Robust",
		Title:  "Chaos drill: fault classes vs channel outcome (cross-ToR pair, SmallClos)",
		Header: []string{"class", "final", "detect", "settle", "sent", "delivered", "dups", "lost", "resps"},
	}
	var digest []string
	var claims []Claim
	perturbed, ecmp := 0, 0
	for i, spec := range classes {
		cl := runChaosClass(sc, spec.name, spec.want, spec.steps)
		if i == 0 {
			ecmp = len(cl.Timeline)
		}
		det, set := "-", "-"
		if cl.Detect > 0 {
			det, set = cl.Detect.String(), cl.Settle.String()
		}
		t.Addf(cl.Name, cl.Final.String(), det, set, cl.Sent, cl.Delivered, cl.Dups, cl.Lost, cl.Answered)
		digest = append(digest, "class "+cl.Name)
		digest = append(digest, cl.ChaosLog...)
		digest = append(digest, cl.Timeline...)
		digest = append(digest, fmt.Sprintf("final=%v sent=%d dups=%d lost=%d", cl.Final, cl.Sent, cl.Dups, cl.Lost))
		id := "E19/" + cl.Name
		claims = append(claims, shape(id+"/final", cl.Want.String(), cl.Final == cl.Want))
		claims = append(claims, cl.claims(id, 100)...)
		if len(cl.Timeline) > 0 {
			perturbed++
		}
	}
	t.Note("transient classes must end Healthy (back on RDMA); nic-loss-permanent must end Fallback (Mock/TCP)")
	t.Note("dups and lost must be 0 in every class: the seq-ack window replays the unacked tail and the receiver dedups")
	// The drill is vacuous unless the faults perturbed the channel in most
	// classes, and the ECMP control must ride through its single uplink
	// loss untouched.
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: append(claims,
		within("E19/classes", "6", float64(len(classes)), 6, 6),
		within("E19/perturbed-classes", "faults bite", float64(perturbed), 3, inf),
		within("E19/ecmp-reroute/transitions", "ECMP absorbs", float64(ecmp), 0, 0))}
}
