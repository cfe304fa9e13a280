package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

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
	Extra   int  // opens no phase claims (wrong class or culprit), between this fault and the next
}

// FleetResult is the outcome of E26: a multi-rack world with five fault
// classes injected in sequence, diagnosed online by the xrmon collector.
type FleetResult struct {
	Phases []*FleetPhase
	// CleanOpens counts incidents opened before the first fault — the
	// false-positive budget for the warm-up, which must be zero.
	CleanOpens int
	Incidents  []*xrmon.Incident
	// Lines is the run's digest, the fault log and then the incident log:
	// same seed ⇒ bit-identical, sequential or on concurrent goroutines.
	Lines  []string
	Table_ Table
}

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
	c := sc.cluster("fleet/world", cluster.Options{Topology: topo, NICCfg: chaosNIC(), Config: fleetKnobs})
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

	chans := c.Establish(pairs, fleetPort)
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
	every(eng, fleetTick, fleetHorizon, func() {
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
	})

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
	for _, ph := range r.Phases {
		// A phase claims every incident carrying its exact diagnosis — a
		// bursty fault may close and legitimately reopen — and reports
		// detection latency from the first.
		for _, inc := range r.Incidents {
			if !ph.claims(inc) {
				continue
			}
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
		if i := r.phaseOf(inc); i < 0 {
			r.CleanOpens++
		} else if !r.claims(inc) {
			r.Phases[i].Extra++
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

// Misses lists how the run falls short of E26's bar: every phase diagnosed
// with its exact class and culprit (conf > 0, ≥ 1 epoch), the transient
// incidents closed after their faults heal and the node-down one still
// open, and no incident in the clean warm-up or unclaimed by a phase.
// Empty means the run meets it.
func (r *FleetResult) Misses() []string {
	var out []string
	if r.CleanOpens != 0 {
		out = append(out, fmt.Sprintf("clean warm-up opened %d incidents", r.CleanOpens))
	}
	for _, inc := range r.Incidents {
		if r.phaseOf(inc) >= 0 && !r.claims(inc) {
			out = append(out, fmt.Sprintf("unclaimed %s incident, culprit %s, opened %v after the first fault", inc.Class, inc.Culprit, inc.OpenedAt.Sub(r.Phases[0].FaultAt)))
		}
	}
	for _, ph := range r.Phases {
		switch {
		case !ph.Hit:
			out = append(out, fmt.Sprintf("phase %s: no %s incident with culprit %q", ph.Name, ph.Class, ph.Culprit))
		case ph.Conf <= 0 || ph.Epochs < 1:
			out = append(out, fmt.Sprintf("phase %s: weak diagnosis conf=%d epochs=%d", ph.Name, ph.Conf, ph.Epochs))
		case ph.Closed != ph.heals():
			out = append(out, fmt.Sprintf("phase %s: incident closed=%v at the horizon", ph.Name, ph.Closed))
		}
	}
	return out
}

// heals reports whether the phase's fault is transient: its incident must
// close by the horizon. The node crash is permanent.
func (ph *FleetPhase) heals() bool { return ph.Class != xrmon.IncNodeDown }

// FleetClassScore is one fault class of E26 scored across seeds.
type FleetClassScore struct {
	Name   string
	Hits   int            // seeds that named the exact class and culprit
	Detect []sim.Duration // fault → first open, one per hit, sorted
	Extra  int            // unclaimed opens between this fault and the next
	Closed int            // hits whose incident was closed at the horizon
}

// FleetScore is E26 run once per seed: the diagnoser's hit rate, detection
// latency and false opens as numbers, not a one-seed verdict.
type FleetScore struct {
	Misses     [][]string // per seed, how its run falls short of the bar
	Pass       int        // seeds whose run meets it
	CleanOpens int        // incidents opened in clean warm-ups, all seeds
	CleanSeeds int        // seeds with any
	Classes    []*FleetClassScore
	Table_     Table
}

// FleetScorecard runs E26 once per seed, the worlds in parallel (one per
// core; each owns its engine), and scores every fault class across them.
// The result depends only on the seeds.
func FleetScorecard(seeds []uint64) *FleetScore {
	runs := make([]*FleetResult, len(seeds))
	cores := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cores <- struct{}{}
			runs[i] = Fleet(Scale{Seed: seed})
			<-cores
		}()
	}
	wg.Wait()

	s := &FleetScore{}
	for _, ph := range runs[0].Phases {
		s.Classes = append(s.Classes, &FleetClassScore{Name: ph.Name})
	}
	for _, r := range runs {
		miss := r.Misses()
		s.Misses = append(s.Misses, miss)
		if len(miss) == 0 {
			s.Pass++
		}
		s.CleanOpens += r.CleanOpens
		if r.CleanOpens > 0 {
			s.CleanSeeds++
		}
		for i, ph := range r.Phases {
			cs := s.Classes[i]
			cs.Extra += ph.Extra
			if ph.Hit {
				cs.Hits++
				cs.Detect = append(cs.Detect, ph.Detect)
				if ph.Closed {
					cs.Closed++
				}
			}
		}
	}

	n := len(seeds)
	t := Table{
		ID:     "E26/FleetScore",
		Title:  fmt.Sprintf("Fleet diagnosis across %d seeds (%d–%d): hit rate, detection latency, false opens", n, seeds[0], seeds[n-1]),
		Header: []string{"phase", "hit", "detect p50", "p90", "max", "extra opens", "closed"},
	}
	for _, cs := range s.Classes {
		slices.Sort(cs.Detect)
		t.Addf(cs.Name, fmt.Sprintf("%d/%d", cs.Hits, n), durRank(cs.Detect, 50), durRank(cs.Detect, 90), durRank(cs.Detect, 100),
			cs.Extra, fmt.Sprintf("%d/%d", cs.Closed, cs.Hits))
	}
	t.Addf("(clean warm-up)", "-", "-", "-", "-", fmt.Sprintf("%d in %d seeds", s.CleanOpens, s.CleanSeeds), "-")
	t.Note("%d of %d seeds meet the bar (every phase hit, closed as it should be, no warm-up or extra opens)", s.Pass, n)
	t.Note("hit = exact class and culprit; extra opens = unclaimed incidents opened between this fault and the next")
	t.Note("closed = hits closed at the horizon: all of them for the transient classes, none for node-crash")
	s.Table_ = t
	return s
}

// phaseOf is the index of the last phase whose fault precedes the incident's
// open, -1 for the clean warm-up.
func (r *FleetResult) phaseOf(inc *xrmon.Incident) int {
	i := len(r.Phases) - 1
	for i >= 0 && inc.OpenedAt < r.Phases[i].FaultAt {
		i--
	}
	return i
}

// claims reports whether the incident carries the phase's exact diagnosis and
// opened after its fault.
func (ph *FleetPhase) claims(inc *xrmon.Incident) bool {
	return inc.Class == ph.Class && inc.Culprit == ph.Culprit && inc.OpenedAt >= ph.FaultAt
}

// claims reports whether some phase claims the incident.
func (r *FleetResult) claims(inc *xrmon.Incident) bool {
	for _, ph := range r.Phases {
		if ph.claims(inc) {
			return true
		}
	}
	return false
}

// durRank is the nearest-rank p-th percentile of sorted d, "-" for none.
func durRank(d []sim.Duration, p int) string {
	if len(d) == 0 {
		return "-"
	}
	return d[(p*len(d)+99)/100-1].String()
}
