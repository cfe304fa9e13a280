package bench

import (
	"fmt"
	"sort"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// E20 "grayhaul": the gray-failure drill. One spine path of a SmallClos
// browns out permanently (loss + corruption + added latency, never a
// hard link-down) under a steady cross-ToR request load. RC go-back-N
// absorbs the damage, so the PR 3 health machine correctly never fires —
// and without further help the channel pays the degraded path forever.
// The experiment runs three arms on identical worlds:
//
//	clean       no fault            — the baseline tail
//	doctor-off  fault, doctor off   — the gray failure: p99 stays inflated
//	doctor-on   fault, doctor on    — the path doctor detects the sick
//	            path from counter deltas and rotates the ECMP flow label
//	            onto the healthy spine; the tail returns to ~baseline
//
// The drill claims doctor-on p99 within 1.15× of clean, doctor-off
// visibly worse, zero lost and zero duplicate requests everywhere, and a
// bit-identical digest across runs and -j.

// grayArm is the outcome of one arm.
type grayArm struct {
	Name string
	tally

	Rehashes int64 // flow-label rotations, client + server
	// FirstRehash is fault→first client-side rotation (0 = none).
	FirstRehash sim.Duration

	// P50/P99 are over requests issued in the tail window (sentAt ≥
	// grayTailFrom), after any re-pathing has settled.
	P50, P99 sim.Duration

	PathLog  []string // client then server doctor logs
	ChaosLog []string
}

const (
	grayFaultAt  = 100 * sim.Millisecond
	grayTick     = 500 * sim.Microsecond
	graySendStop = 500 * sim.Millisecond
	grayHorizon  = 650 * sim.Millisecond
	grayTailFrom = 350 * sim.Millisecond
)

// grayKnobs compresses the doctor's clocks to the drill horizon.
func grayKnobs(doctor bool) func(int, *xrdma.Config) {
	return func(_ int, cfg *xrdma.Config) {
		cfg.PathDoctor = doctor
		cfg.PathRehashCooldown = 4 * sim.Millisecond
		cfg.StatsInterval = 1 * sim.Millisecond // doctor scan cadence
		cfg.RequestTimeout = 25 * sim.Millisecond
		cfg.KeepaliveInterval = 5 * sim.Millisecond
		cfg.KeepaliveTimeout = 50 * sim.Millisecond
	}
}

// grayNIC keeps the RC retry horizon deep: a brownout must be absorbed
// by go-back-N (the gray failure), never escalate to retry exhaustion
// (the PR 3 hard-failure path).
func grayNIC() rnic.Config {
	nic := rnic.DefaultConfig()
	nic.RetransTimeout = 1 * sim.Millisecond
	nic.RetryLimit = 12
	return nic
}

func grayPercentile(ds []sim.Duration, p float64) sim.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// runGrayArm drives one arm on a fresh SmallClos world: client node 0
// (pod0-tor0) to server node 4 (pod0-tor1), so every request crosses the
// leaf tier the brownout hits. No Mock or recovery plane is attached —
// the doctor must heal the path without them (the send-errors claim holds
// that the escalation path never fired).
func runGrayArm(sc Scale, name string, doctor, fault bool) *grayArm {
	a := &grayArm{Name: name}
	c := sc.cluster("gray/"+name, cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   grayNIC(),
		Nodes:    8,
		Config:   grayKnobs(doctor),
	})
	eng := c.Eng
	l := newLedger()
	l.serve(c, 7400)
	ch := c.Establish([][2]int{{0, 4}}, 7400)[0]
	srv := c.Nodes[4].Ctx.Channels()[0]

	// Steady load: one 16-byte id-carrying request per tick. Latency is
	// recorded per id so the tail window can be sliced by issue time.
	start := eng.Now()
	var nextID uint64
	sentAt := map[uint64]sim.Time{}
	var tailLats []sim.Duration
	every(eng, grayTick, graySendStop, func() {
		sentAt[nextID] = eng.Now()
		l.request(ch, nextID, 16, func(rid uint64) {
			if at := sentAt[rid]; at.Sub(start) >= grayTailFrom {
				tailLats = append(tailLats, eng.Now().Sub(at))
			}
		})
		nextID++
	})

	inj := chaos.New(c)
	if fault {
		inj.Schedule([]chaos.Step{{At: grayFaultAt, Name: "gray brownout", Do: flowBrownout(ch)}})
	}

	eng.RunUntil(start.Add(grayHorizon))

	a.Rehashes = ch.Rehashes() + srv.Rehashes()
	if at := ch.FirstRehashAt(); at != 0 {
		a.FirstRehash = at.Sub(start.Add(grayFaultAt))
	}
	for _, l := range ch.PathLog() {
		a.PathLog = append(a.PathLog, "client "+l)
	}
	for _, l := range srv.PathLog() {
		a.PathLog = append(a.PathLog, "server "+l)
	}
	a.ChaosLog = inj.Digest()
	a.tally = l.settle()
	a.P50 = grayPercentile(tailLats, 0.50)
	a.P99 = grayPercentile(tailLats, 0.99)
	return a
}

// flowBrownout browns out the one spine path ch's requests ride (12% loss,
// 5% corruption, 20 µs added latency), the gray failure of E20 and E21. The
// ToR's uplink candidates are in leaf order, so the ECMP index of the
// channel's flow key names the leaf directly.
func flowBrownout(ch *xrdma.Channel) func(*chaos.Injector) {
	return func(i *chaos.Injector) {
		idx := fabric.ECMPIndex(ch.FlowHash(), 2)
		i.Brownout("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idx), 0.12, 0.05, 20*sim.Microsecond)
	}
}

// Grayhaul runs the three arms and renders the E20 table.
func Grayhaul(sc Scale) Result {
	clean := runGrayArm(sc, "clean", true, false)
	off := runGrayArm(sc, "doctor-off", false, true)
	on := runGrayArm(sc, "doctor-on", true, true)
	t := Table{
		ID:     "E20/Grayhaul",
		Title:  "Gray failure: permanent spine brownout vs path doctor (cross-ToR pair, SmallClos)",
		Header: []string{"arm", "p50", "p99", "sent", "resps", "rehashes", "1st-rehash", "dups", "lost"},
	}
	var digest []string
	var claims []Claim
	for _, a := range []*grayArm{clean, off, on} {
		fr := "-"
		if a.FirstRehash != 0 {
			fr = a.FirstRehash.String()
		}
		t.Addf(a.Name, a.P50.String(), a.P99.String(), a.Sent, a.Answered, a.Rehashes, fr, a.Dups, a.Lost)
		digest = append(digest, "arm "+a.Name)
		digest = append(digest, a.ChaosLog...)
		digest = append(digest, a.PathLog...)
		digest = append(digest, fmt.Sprintf("sent=%d delivered=%d dups=%d lost=%d resps=%d errs=%d rehashes=%d p50=%v p99=%v",
			a.Sent, a.Delivered, a.Dups, a.Lost, a.Answered, a.SendErrs, a.Rehashes, a.P50, a.P99))
		// A send error would mean the doctor escalated a healable path.
		claims = append(claims, a.claims("E20/"+a.Name, 100)...)
	}
	t.Note("p50/p99 over requests issued after t=%v (re-pathing settled); brownout never clears", grayTailFrom)
	t.Note("doctor-on must return the tail to ≤1.15× clean; doctor-off stays degraded — the health machine alone never acts on a gray path")
	// The gray failure must be gray (doctor-off degraded but alive), only
	// the doctor re-paths, and its cure returns the tail to ~baseline.
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: append(claims,
		within("E20/clean/rehashes", "0", float64(clean.Rehashes), 0, 0),
		within("E20/doctor-off/p99-µs", "degraded", off.P99.Micros(), 2*clean.P99.Micros(), inf),
		within("E20/doctor-off/rehashes", "0", float64(off.Rehashes), 0, 0),
		within("E20/doctor-on/rehashes", "re-paths", float64(on.Rehashes), 1, inf),
		within("E20/doctor-on/1st-rehash-µs", "detects", on.FirstRehash.Micros(), above(0), (60*sim.Millisecond).Micros()),
		within("E20/doctor-on/p99-µs", "≤1.15× clean", on.P99.Micros(), -inf, (clean.P99*115/100).Micros()))}
}
