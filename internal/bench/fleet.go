package bench

import (
	"fmt"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
	"xrdma/internal/xrmon"
)

// FleetPhase is one chaos-injected fault class of the fleet-diagnosis
// drill and what the collector made of it.
type FleetPhase struct {
	Name    string
	Class   xrmon.IncidentClass // expected diagnosis
	Culprit string              // expected culprit label
	FaultAt sim.Time
	Hit     bool         // an incident with the expected class+culprit opened
	Detect  sim.Duration // fault → incident open
	Conf    int
	Epochs  int
	Closed  bool // closed again by the horizon (transient classes heal)
}

// FleetResult is the outcome of E26: a multi-rack world with five fault
// classes injected in sequence, diagnosed online by the xrmon collector.
type FleetResult struct {
	Phases []*FleetPhase
	// CleanOpens counts incidents opened before the first fault — the
	// false-positive budget for the warm-up, which must be zero.
	CleanOpens int
	// ExtraOpens counts opened incidents no phase claims — wrong-class or
	// wrong-culprit diagnoses.
	ExtraOpens int
	Incidents  []*xrmon.Incident
	Lines      []string // deterministic digest: fault log + incident log
	Table_     Table
}

// Digest renders the run as deterministic lines: same seed ⇒ bit-identical
// output, sequential or across concurrent goroutines.
func (r *FleetResult) Digest() []string { return r.Lines }

// fleetKnobs compresses the observability clocks the way chaosKnobs
// compresses the recovery clocks: 2 ms stats epochs so the 8-epoch
// detection window spans 16 ms, keepalives fast enough to corroborate a
// node death within one window. The path doctor is disabled on purpose —
// it would re-path around the injected brownout and hide the very
// symptoms the fleet plane is supposed to diagnose.
func fleetKnobs(node int, cfg *xrdma.Config) {
	cfg.StatsInterval = 2 * sim.Millisecond
	cfg.PathDoctor = false
	cfg.KeepaliveInterval = 2 * sim.Millisecond
	cfg.KeepaliveTimeout = 8 * sim.Millisecond
	// Tenant channels require the mux-QP layout, and mux needs SRQ mode on
	// both ends of a dial, so the whole fleet runs the production layout.
	cfg.QPsPerPeer = 1
	if node == fleetTenantNode {
		// The elephant tenant lives on node 4 with a deliberately tiny
		// registered-memory budget; the overload phase runs straight
		// into it.
		cfg.Tenants = []xrdma.TenantConfig{{Name: "elephant", MemBudget: 64 << 10}}
	}
	if node == fleetRNRNode {
		// Node 10 shares one undersized receive queue across its
		// channels — the Fig. 9 slow-receiver configuration.
		cfg.UseSRQ = true
		cfg.SRQSize = 4
	}
}

const (
	fleetPort       = 7700
	fleetTick       = 500 * sim.Microsecond
	fleetMsgBytes   = 1024
	fleetTenantNode = 4
	fleetRNRNode    = 10
	fleetRNRSender  = 2
	fleetCrashNode  = 9

	fleetIncastFrom = 250 * sim.Millisecond
	fleetIncastTo   = 350 * sim.Millisecond
	fleetBrownFrom  = 450 * sim.Millisecond
	fleetBrownTo    = 550 * sim.Millisecond
	fleetRNRFrom    = 650 * sim.Millisecond
	fleetRNRTo      = 750 * sim.Millisecond
	fleetTenantFrom = 850 * sim.Millisecond
	fleetTenantTo   = 950 * sim.Millisecond
	fleetCrashAt    = 1050 * sim.Millisecond
	fleetHorizon    = 1150 * sim.Millisecond
)

// Fleet is E26: the fleet-diagnosis drill. One 16-host two-pod clos world
// runs steady background traffic while five fault classes are injected in
// sequence with clean gaps between them; the xrmon collector watches the
// per-node agents online and must (a) stay silent through the clean
// warm-up, (b) open an incident of exactly the expected class with exactly
// the expected culprit for every fault, and (c) close the transient
// incidents once their faults heal.
func Fleet(sc Scale) *FleetResult {
	r := &FleetResult{}
	topo := fabric.Topology{Pods: 2, LeavesPerPod: 2, TorsPerPod: 2, HostsPerTor: 4}
	c := cluster.New(cluster.Options{
		Topology: topo,
		NICCfg:   chaosNIC(),
		Config:   fleetKnobs,
		Seed:     sc.Seed,
	})
	sc.observe(c.Eng, "fleet/world")
	eng := c.Eng

	col := xrmon.For(eng)
	for i := 0; i < topo.Hosts(); i++ {
		pod := i / (topo.TorsPerPod * topo.HostsPerTor)
		tor := (i / topo.HostsPerTor) % topo.TorsPerPod
		col.SetLocation(int32(i), fmt.Sprintf("pod%d-tor%d", pod, tor), fmt.Sprintf("pod%d", pod))
	}
	// Stronger debounce than the defaults: 3 consecutive matching epochs
	// to open (brownout symptom mixes shift epoch to epoch) and 8 quiet
	// epochs to close (bursty faults pause longer than one window).
	col.Watch(xrmon.WatchConfig{OpenAfter: 3, CloseAfter: 8})

	// Phase-gated fault behaviour the load loop consults.
	var incastOn, rnrOn, tenantOn, rnrSlow bool

	c.ListenAll(fleetPort, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			if int(n.ID) == fleetRNRNode && rnrSlow {
				// Application work between polls: this is what lets the
				// burst outrun SRQ reposting and stream RNR NAKs.
				n.Ctx.InjectWork(4 * sim.Microsecond)
			}
			m.Reply(nil, 0)
		})
	})

	// Base mesh: one cross-pod channel per node pair i→i+8 and one
	// intra-rack channel even→odd, so every host terminates exactly two
	// channels and the node-9 crash leaves its peers with live traffic.
	var pairs [][2]int
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]int{i, i + 8})
	}
	for i := 0; i < topo.Hosts(); i += 2 {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	// Incast channels: nodes 5 and 6 both target node 7 (same ToR).
	incastBase := len(pairs)
	pairs = append(pairs, [2]int{5, 7}, [2]int{6, 7})

	var chans []*xrdma.Channel
	c.ConnectPairs(pairs, fleetPort, func(chs []*xrdma.Channel) { chans = chs })
	eng.Run()
	if chans == nil {
		panic("fleet: channel mesh never established")
	}
	base, inc5, inc6 := chans[:incastBase], chans[incastBase], chans[incastBase+1]

	// The elephant tenant's channel from node 4 into pod 1.
	tenantCh, err := c.Nodes[fleetTenantNode].Ctx.ChannelTo(c.Nodes[12].ID, fleetPort, xrdma.WithTenant("elephant"))
	if err != nil {
		panic(fmt.Sprintf("fleet: tenant ChannelTo: %v", err))
	}
	eng.Run()

	start := eng.Now()
	var faultLog []string
	mark := func(what string) {
		faultLog = append(faultLog, fmt.Sprintf("t=%v %s", eng.Now().Sub(start), what))
	}

	drop := func(*xrdma.Msg, error) {}
	send := func(ch *xrdma.Channel, n int) {
		ch.SendMsg(make([]byte, n), 0, drop) // error = channel dead; diagnosis is the point
	}
	var tick func()
	tick = func() {
		if eng.Now().Sub(start) >= fleetHorizon {
			return
		}
		for _, ch := range base {
			send(ch, fleetMsgBytes)
		}
		if incastOn {
			// Aggressor node 6 pushes ~3× node 5 into the shared victim;
			// the combined offered load oversubscribes host 7's 25 Gbps
			// downlink and lights up ECN/PFC at the ToR.
			send(inc5, 256<<10)
			for k := 0; k < 3; k++ {
				send(inc6, 256<<10)
			}
		}
		if rnrOn {
			for k := 0; k < 32; k++ {
				send(base[fleetRNRSender], fleetMsgBytes) // base[2] is 2→10
			}
		}
		if tenantOn {
			// 128 KiB rendezvous sends against a 64 KiB budget: every
			// allocation rejects and the isolation plane sheds.
			send(tenantCh, 128<<10)
			send(tenantCh, 128<<10)
		}
		eng.AfterBg(fleetTick, tick)
	}
	eng.AfterBg(fleetTick, tick)

	inj := chaos.New(c)
	at := func(d sim.Duration, f func()) { eng.AfterBg(d, f) }
	at(fleetIncastFrom, func() { incastOn = true; mark("fault incast-burst on (5,6 -> 7)") })
	at(fleetIncastTo, func() { incastOn = false; mark("heal incast-burst off") })
	at(fleetBrownFrom, func() { inj.Brownout("pod0-leaf0", "spine0", 0.12, 0.05, 20*sim.Microsecond) })
	at(fleetBrownTo, func() { inj.ClearBrownout("pod0-leaf0", "spine0") })
	at(fleetRNRFrom, func() { rnrOn, rnrSlow = true, true; mark("fault rnr-storm on (2 -> 10)") })
	at(fleetRNRTo, func() { rnrOn, rnrSlow = false, false; mark("heal rnr-storm off") })
	at(fleetTenantFrom, func() { tenantOn = true; mark("fault elephant-tenant on (4 -> 12)") })
	at(fleetTenantTo, func() { tenantOn = false; mark("heal elephant-tenant off") })
	at(fleetCrashAt, func() { inj.NodeCrash(fleetCrashNode) })

	eng.RunUntil(start.Add(fleetHorizon))

	r.Phases = []*FleetPhase{
		{Name: "incast-burst", Class: xrmon.IncIncast, Culprit: "node6", FaultAt: start.Add(fleetIncastFrom)},
		{Name: "spine-brownout", Class: xrmon.IncFabricBrownout, Culprit: "fabric:spine", FaultAt: start.Add(fleetBrownFrom)},
		{Name: "rnr-storm", Class: xrmon.IncSlowReceiver, Culprit: "node10", FaultAt: start.Add(fleetRNRFrom)},
		{Name: "elephant-tenant", Class: xrmon.IncTenantOverload, Culprit: "tenant:elephant@node4", FaultAt: start.Add(fleetTenantFrom)},
		{Name: "node-crash", Class: xrmon.IncNodeDown, Culprit: "node9", FaultAt: start.Add(fleetCrashAt)},
	}
	r.Incidents = col.Incidents()
	firstFault := r.Phases[0].FaultAt
	claimed := make(map[*xrmon.Incident]bool)
	for _, ph := range r.Phases {
		// A phase claims every incident carrying its exact diagnosis — a
		// bursty fault may close and legitimately reopen — and reports
		// detection latency from the first.
		for _, inc := range r.Incidents {
			if claimed[inc] || inc.Class != ph.Class || inc.Culprit != ph.Culprit || inc.OpenedAt < ph.FaultAt {
				continue
			}
			claimed[inc] = true
			if !ph.Hit {
				ph.Hit = true
				ph.Detect = inc.OpenedAt.Sub(ph.FaultAt)
			}
			if inc.Confidence > ph.Conf {
				ph.Conf = inc.Confidence
			}
			ph.Epochs += inc.Epochs
			ph.Closed = inc.Closed
		}
	}
	for _, inc := range r.Incidents {
		if inc.OpenedAt < firstFault {
			r.CleanOpens++
		} else if !claimed[inc] {
			r.ExtraOpens++
		}
	}

	r.Lines = append(r.Lines, faultLog...)
	r.Lines = append(r.Lines, inj.Digest()...)
	r.Lines = append(r.Lines, col.Digest()...)

	t := Table{
		ID:     "E26/Fleet",
		Title:  "Fleet diagnosis: injected fault class vs diagnosed incident (16 hosts, 2 pods)",
		Header: []string{"phase", "want", "diagnosed", "culprit", "detect", "conf", "epochs", "closed"},
	}
	for _, ph := range r.Phases {
		diag := "MISSED"
		if ph.Hit {
			diag = ph.Class.String()
		}
		closed := "open"
		if ph.Closed {
			closed = "yes"
		}
		t.Addf(ph.Name, ph.Class.String(), diag, ph.Culprit, ph.Detect.String(), ph.Conf, ph.Epochs, closed)
	}
	t.Addf("(clean warm-up)", "-", fmt.Sprintf("%d incidents", r.CleanOpens), "-", "-", "-", "-", "-")
	t.Note("every phase must be diagnosed with its exact class and culprit; warm-up and extra opens must be 0")
	t.Note("transient classes close after the fault heals; node-crash stays open through the horizon")
	r.Table_ = t
	return r
}
