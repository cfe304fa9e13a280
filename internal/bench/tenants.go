package bench

import (
	"encoding/binary"
	"fmt"
	"strings"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

// E24 "tenants": the multi-tenant isolation drill. One client host runs
// two tenants over the SAME shared mux QP (QPsPerPeer=1) to one server:
//
//	mouse     latency-sensitive: one 16-byte request per tick, weight 8
//	elephant  bulk: closed-loop 4 KiB inline floods plus a 32 KiB
//	          rendezvous stream per channel, weight 1, rate-limited,
//	          window-partitioned, and memory-budgeted
//
// Two arms on identical worlds isolate the interference question:
//
//	alone   only the mouse runs — the baseline tail
//	shared  mouse + elephant contend for the shared SQ, the send window,
//	        the token bucket and the staging pool
//
// The drill claims the mouse's contended p99
// stays within 1.25× of its alone baseline (the DRR scheduler and the
// elephant's own limits absorb the flood), the elephant's memory budget
// rejects allocations (ErrTenantBudget, never a silent stall) and starts
// shed episodes whose flight dumps name the elephant, late elephant
// attaches are shed into the admission FIFO and establish only after the
// load drops, and the digest is bit-identical across reruns and -j.

const (
	tenMouseTick   = 200 * sim.Microsecond
	tenEleFrom     = 10 * sim.Millisecond
	tenEleStop     = 250 * sim.Millisecond
	tenLateAt      = 150 * sim.Millisecond
	tenMouseStop   = 320 * sim.Millisecond
	tenHorizon     = 420 * sim.Millisecond
	tenTailFrom    = 50 * sim.Millisecond  // contended window start
	tenRecovFrom   = 270 * sim.Millisecond // recovered window start
	tenEleChans    = 4
	tenEleLoops    = 8 // concurrent inline request loops per elephant channel
	tenEleInline   = 4096
	tenEleLarge    = 32 << 10
	tenLateChans   = 3
	tenMouseMarker = uint64(0x6d6f757365) // "mouse"
)

// tenantsKnobs is shared by both arms so the worlds differ only in
// offered load.
func tenantsKnobs(_ int, cfg *xrdma.Config) {
	cfg.QPsPerPeer = 1
	cfg.TenantShedCooldown = 20 * sim.Millisecond
	cfg.Tenants = []xrdma.TenantConfig{
		{Name: "mouse", Weight: 8},
		{Name: "elephant", Weight: 1,
			RateBps:    1 << 30,
			BurstBytes: 64 << 10,
			SendWindow: 16,
			MemBudget:  40 << 10},
	}
}

// tenantArm is the outcome of one arm.
type tenantArm struct {
	Name  string
	mouse tally

	// Contended window (elephant active) and recovered window (after the
	// elephant stops) tails.
	P50, P99           sim.Duration
	RecovP50, RecovP99 sim.Duration

	// Shared arm only.
	EleSent      int // elephant SendMsg calls issued
	EleBudgetErr int // ErrTenantBudget completions (admission verdicts)
	LateAttached int // late elephant channels established by drill end

	ShedDumps   int    // flight dumps with reason tenant.shed
	ShedCulprit uint32 // QPN field of the first shed dump = culprit tenant id

	TenantLog []string // client-side TenantDigest lines
}

// runTenantArm drives one arm on a fresh SmallClos world: client node 0
// to server node 4 (cross-ToR), every tenant multiplexed onto the single
// shared QP the config allows.
func runTenantArm(sc Scale, name string, elephant bool) *tenantArm {
	a := &tenantArm{Name: name}
	c := sc.cluster("tenants/"+name, cluster.Options{Topology: fabric.SmallClos(), Nodes: 8, Config: tenantsKnobs})
	eng := c.Eng

	l := newLedger()
	c.ListenAll(7500, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			if len(m.Data) >= 16 && binary.LittleEndian.Uint64(m.Data) == tenMouseMarker {
				l.deliver(binary.LittleEndian.Uint64(m.Data[8:]))
				m.Reply(m.Data[:16], 0)
				return
			}
			m.Reply(nil, 8)
		})
	})

	ctx := c.Nodes[0].Ctx
	srv := c.Nodes[4].ID
	mouse, err := ctx.ChannelTo(srv, 7500, xrdma.WithTenant("mouse"))
	if err != nil {
		panic(fmt.Sprintf("tenants: mouse ChannelTo: %v", err))
	}

	// Mouse load: one id-stamped request per tick; latencies are sliced
	// into the contended and recovered windows by issue time.
	start := eng.Now()
	var nextID uint64
	sentAt := map[uint64]sim.Time{}
	var tailLats, recovLats []sim.Duration
	every(eng, tenMouseTick, tenMouseStop, func() {
		id := nextID
		nextID++
		buf := make([]byte, 16)
		binary.LittleEndian.PutUint64(buf, tenMouseMarker)
		binary.LittleEndian.PutUint64(buf[8:], id)
		sentAt[id] = eng.Now()
		l.send(id, mouse.SendMsg(buf, 0, func(m *xrdma.Msg, err error) {
			if err != nil {
				return
			}
			rid := binary.LittleEndian.Uint64(m.Data[8:])
			l.respond(rid)
			at := sentAt[rid]
			lat := eng.Now().Sub(at)
			switch issued := at.Sub(start); {
			case issued >= tenRecovFrom:
				recovLats = append(recovLats, lat)
			case issued >= tenTailFrom && issued < tenEleStop:
				tailLats = append(tailLats, lat)
			}
		}))
	})

	var late []*xrdma.Channel
	if elephant {
		eng.AfterBg(tenEleFrom, func() {
			for ei := 0; ei < tenEleChans; ei++ {
				ch, err := ctx.ChannelTo(srv, 7500, xrdma.WithTenant("elephant"))
				if err != nil {
					panic(fmt.Sprintf("tenants: elephant ChannelTo: %v", err))
				}
				// Inline flood: closed request loops that saturate the
				// shared SQ until the DRR and token bucket push back.
				for l := 0; l < tenEleLoops; l++ {
					var loop func()
					loop = func() {
						if eng.Now().Sub(start) >= tenEleStop {
							return
						}
						a.EleSent++
						ch.SendMsg(nil, tenEleInline, func(_ *xrdma.Msg, _ error) { loop() })
					}
					eng.AfterBg(sim.Duration(l+1)*10*sim.Microsecond, loop)
				}
				// Rendezvous stream: back-to-back 32 KiB staged sends; the
				// memory budget admits one staging at a time, so concurrent
				// streams reject with ErrTenantBudget and retry.
				var pump func()
				pump = func() {
					if eng.Now().Sub(start) >= tenEleStop {
						return
					}
					a.EleSent++
					ch.SendMsg(nil, tenEleLarge, func(_ *xrdma.Msg, err error) {
						if err != nil {
							a.EleBudgetErr++
							eng.AfterBg(2*sim.Millisecond, pump)
							return
						}
						pump()
					})
				}
				eng.AfterBg(sim.Duration(ei)*50*sim.Microsecond, pump)
			}
		})
		// Late attaches arrive mid-episode: the shed gate must queue them
		// (never dial) and release them only after the load drops.
		eng.AfterBg(tenLateAt, func() {
			for i := 0; i < tenLateChans; i++ {
				ch, err := ctx.ChannelTo(srv, 7500, xrdma.WithTenant("elephant"))
				if err != nil {
					panic(fmt.Sprintf("tenants: late ChannelTo: %v", err))
				}
				late = append(late, ch)
				ch.SendMsg(nil, 64, func(*xrdma.Msg, error) {})
			}
		})
	}

	eng.RunUntil(start.Add(tenHorizon))

	a.mouse = l.settle()
	a.P50 = grayPercentile(tailLats, 0.50)
	a.P99 = grayPercentile(tailLats, 0.99)
	a.RecovP50 = grayPercentile(recovLats, 0.50)
	a.RecovP99 = grayPercentile(recovLats, 0.99)
	for _, ch := range late {
		if ch.Attached() {
			a.LateAttached++
		}
	}
	for _, d := range ctx.Telemetry().Flight.Dumps() {
		if d.Reason == telemetry.CatTenantShed {
			a.ShedDumps++
			if a.ShedCulprit == 0 {
				a.ShedCulprit = d.QPN
			}
		}
	}
	a.TenantLog = ctx.TenantDigest()
	return a
}

// Tenants runs E24 and renders the table.
func Tenants(sc Scale) Result {
	alone, shared := runTenantArm(sc, "alone", false), runTenantArm(sc, "shared", true)
	t := Table{
		ID:    "E24/Tenants",
		Title: "Multi-tenant isolation: elephant flood vs latency-sensitive mouse on one shared QP",
		Header: []string{"arm", "mouse-p50", "mouse-p99", "recov-p99", "sent", "resps", "dups", "lost",
			"ele-sent", "budget-errs", "shed-dumps", "late-attach"},
	}
	var digest []string
	var claims []Claim
	for _, a := range []*tenantArm{alone, shared} {
		m := a.mouse
		t.Addf(a.Name, a.P50.String(), a.P99.String(), a.RecovP99.String(),
			m.Sent, m.Resps, m.Dups, m.Lost,
			a.EleSent, a.EleBudgetErr, a.ShedDumps, a.LateAttached)
		digest = append(digest, "arm "+a.Name)
		digest = append(digest, fmt.Sprintf("mouse sent=%d resps=%d dups=%d lost=%d errs=%d p50=%v p99=%v recov_p50=%v recov_p99=%v",
			m.Sent, m.Resps, m.Dups, m.Lost, m.SendErrs, a.P50, a.P99, a.RecovP50, a.RecovP99))
		digest = append(digest, fmt.Sprintf("elephant sent=%d budget_errs=%d late_attached=%d shed_dumps=%d culprit=%d",
			a.EleSent, a.EleBudgetErr, a.LateAttached, a.ShedDumps, a.ShedCulprit))
		digest = append(digest, a.TenantLog...)
		claims = append(claims, m.claims("E24/"+a.Name+"/mouse", 1)...)
	}
	t.Note("both tenants share ONE mux QP (QPsPerPeer=1); mouse weight 8, elephant weight 1 + rate/window/memory limits")
	t.Note("mouse contended p99 must stay within 1.25x of alone; budget breaches reject with ErrTenantBudget and shed new attaches")
	t.Note("shed flight dumps name the culprit tenant id in the QPN field; late attaches establish after the elephant stops")
	noShed := 0
	for _, line := range shared.TenantLog {
		if strings.HasPrefix(line, "tenant elephant") && (strings.Contains(line, "ashed=0") || strings.Contains(line, "sheds=0 ")) {
			noShed++
		}
	}
	// Isolation: the mouse's contended tail stays within 1.25× of its alone
	// baseline, and returns there once the elephant stops. Overload degrades
	// loudly: the elephant's memory budget rejects allocations, each shed
	// episode's flight dump names the elephant (tenant id 2, the second
	// entry of the config table), and late attaches are shed into the
	// admission FIFO, establishing only after the elephant stops.
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: append(claims,
		within("E24/shared/mouse-p99-µs", "≤1.25× alone", shared.P99.Micros(), -inf, (alone.P99+alone.P99/4).Micros()),
		within("E24/shared/recov-p99-µs", "≤1.25× alone", shared.RecovP99.Micros(), -inf, (alone.RecovP99+alone.RecovP99/4).Micros()),
		within("E24/shared/budget-errs", "rejects loudly", float64(shared.EleBudgetErr), 1, inf),
		within("E24/shared/shed-dumps", "flight dump", float64(shared.ShedDumps), 1, inf),
		within("E24/shared/shed-culprit", "elephant (2)", float64(shared.ShedCulprit), 2, 2),
		within("E24/shared/late-attached", "after the load drops", float64(shared.LateAttached), tenLateChans, tenLateChans),
		within("E24/shared/elephant-never-shed", "0", float64(noShed), 0, 0))}
}
