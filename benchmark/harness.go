package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"xrdma/internal/cluster"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

const listenPort = 7000

// world is one built workload: a cluster with every channel established.
type world interface {
	core() *base
	// round issues exactly n ops and drives the engine until all of them
	// have completed and the pollers are parked again.
	round(n int)
	// check runs the round-end verification and returns what it found wrong.
	check() int64
}

// rec is what a set of rounds produces. lat is sized before the measured
// rounds start and never grows.
type rec struct {
	lat       []uint32 // simulated ns of every completed op
	nlat      int
	attempted int64
	completed int64
	failed    int64
	bytes     int64 // request+reply payload of completed ops
	digest    uint64
	lastDone  sim.Time
}

// base is what every workload shares.
type base struct {
	c    *cluster.Cluster
	eng  *sim.Engine
	rng  *sim.RNG
	tr   *tracer
	r    *rec
	chs  []*xrdma.Channel // client channels whose Inflight must drain
	left int              // ops of the round not issued yet
}

func (b *base) core() *base { return b }

func (b *base) build(o cluster.Options, seed uint64, tr *tracer) {
	o.Seed = seed
	b.tr = tr
	b.rng = sim.NewRNG(seed ^ 0xbe7c4)
	b.r = &rec{}
	tr.beginM(spClusterNew)
	b.c = cluster.New(o)
	tr.end()
	b.eng = b.c.Eng
	if tr != nil {
		tr.fired = b.eng.Fired
	}
}

// run drives the engine until no foreground event is left.
func (b *base) run() {
	b.tr.beginM(spRun)
	b.eng.Run()
	b.tr.end()
}

// begin counts one attempted op and returns its index.
func (b *base) begin() uint64 {
	b.r.attempted++
	return uint64(b.r.attempted - 1)
}

const fnvPrime = 1099511628211

// done records one completed op: latency sample, payload, digest.
func (b *base) done(op uint64, start sim.Time, payload int, ok bool) {
	r := b.r
	now := b.eng.Now()
	r.completed++
	status := uint64(0)
	if ok {
		r.bytes += int64(payload)
		if r.nlat < len(r.lat) {
			r.lat[r.nlat] = uint32(now - start)
			r.nlat++
		}
	} else {
		r.failed++
		status = 1
	}
	h := r.digest
	h = (h ^ op) * fnvPrime
	h = (h ^ uint64(now)) * fnvPrime
	h = (h ^ status) * fnvPrime
	r.digest = h
	r.lastDone = now
}

// checkDrained is the part of the round-end verification every workload
// shares: nothing attempted is still outstanding, nothing is left in a
// send window.
func (b *base) checkDrained() int64 {
	bad := b.r.attempted - b.r.completed
	for _, ch := range b.chs {
		if ch.Inflight() != 0 {
			bad++
		}
	}
	return bad
}

// --- counters ---------------------------------------------------------------

// counters is one reading of every exported layer counter the per-layer
// metrics are built from.
type counters struct {
	fired                                                          uint64
	pkts, dataBytes, ecn, pause, drops, rerouted                   int64
	nicPkts, nicAcks, retx, rnr, seqNak, cnp, qpMiss, qpHit, acErr int64
	polls, dispatched, wakes, slowPolls, acks, nops, kaProbes      int64
	reqRetries, broken, stalls, large                              int64
}

func readCounters(c *cluster.Cluster) counters {
	var k counters
	k.fired = c.Eng.Fired()
	fs := c.Fab.Stats
	k.pkts, k.dataBytes, k.ecn, k.pause, k.drops, k.rerouted =
		fs.Delivered, fs.DataBytes, fs.ECNMarks, fs.PauseTX, fs.Drops, fs.Rerouted
	for _, n := range c.Nodes {
		nc := n.NIC.Counters
		k.nicPkts += nc.PktsSent
		k.nicAcks += nc.AcksSent
		k.retx += nc.Retransmits
		k.rnr += nc.RNRNakSent
		k.seqNak += nc.SeqNakSent
		k.cnp += nc.CNPSent
		k.qpMiss += nc.QPCacheMisses
		k.qpHit += nc.QPCacheHits
		k.acErr += nc.AccessErrors
		s := n.Ctx.Stats
		k.polls += s.Polls
		k.dispatched += s.Dispatched
		k.wakes += s.EventWakes
		k.slowPolls += s.SlowPolls
		k.acks += s.AcksSent
		k.nops += s.NopsSent
		k.kaProbes += s.KeepaliveProbes
		k.reqRetries += s.ReqRetries
		k.broken += s.ChannelsBroken
		for _, ch := range n.Ctx.Channels() {
			k.stalls += ch.Counters.WindowStalls
			k.large += ch.Counters.LargeSent
		}
	}
	return k
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// --- measurement ------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Rounds    int               `json:"rounds"`
	Ops       int               `json:"ops_per_round"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Digest    string            `json:"sim_digest"`
	Samples   int               `json:"latency_samples"`
	HostP50   float64           `json:"host_us_per_op_p50"`
	HostP90   float64           `json:"host_us_per_op_p90"`
	HostRound []float64         `json:"host_us_per_op_rounds"` // untraced rounds, in order, as timed
	Calib     []float64         `json:"calib_pass_us"`         // calibration passes, in order
	Truncated bool              `json:"truncated,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *result) put(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric reported twice: " + name)
	}
	r.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

type runOpts struct {
	seed    uint64
	rounds  int // measured rounds R, over all worlds
	warm    int // warm-up rounds W, per world
	ops     int // ops per round N
	worlds  int // how many worlds the measured rounds are spread over
	trace   bool
	maxWall time.Duration // stop measuring early past this (0 = never)
}

// setup builds the world and runs the warm-up rounds; its wall time, scaled
// by the calibration passes either side of it, is setup_s.
func setup(s *spec, o runOpts, seed uint64, tr *tracer, cal *calibrator) (world, float64) {
	passes := cal.passes(nil, calibSetup)
	t0 := time.Now()
	if tr != nil {
		tr.on = true
	}
	w := s.build(seed, o.ops, tr)
	if tr != nil {
		tr.on = false
		tr.flush(-1)
	}
	for i := 0; i < o.warm; i++ {
		w.round(o.ops)
	}
	d := time.Since(t0)
	return w, d.Seconds() * speed(cal.passes(passes, calibSetup))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile is the value a quarter of the way up the sorted v.
func lowerQuartile(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/4]
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is what the measured rounds on one world yield beyond what they
// add to the shared rec.
type phase struct {
	wall, wallTr                          []float64 // µs per op, one per round
	scaled                                []float64 // wall on the reference host
	cal                                   []float64 // calibration passes: one before each round, one after the last
	wallUntraced, wallTraced, cpuUntraced time.Duration
	firedUntraced                         uint64
	tracedOps, untracedOps                int64
	pendingSum                            float64
	simBusy                               sim.Duration
	checkBad                              int64
	rounds                                int
	ms0, ms1                              runtime.MemStats
	k0, k1                                counters
}

// runRounds runs up to n measured rounds on w, every second one traced when
// tr is set, and stops early once stop has passed.
func runRounds(w world, o runOpts, n int, tr *tracer, cal *calibrator, stop time.Time) *phase {
	b := w.core()
	m := b.r
	p := &phase{cal: make([]float64, 0, n+1)}
	var untraced []int // which round each entry of wall is
	runtime.ReadMemStats(&p.ms0)
	p.k0 = readCounters(b.c)
	for i := 0; i < n; i++ {
		traced := tr != nil && i%2 == 1
		if tr != nil {
			tr.on = traced
		}
		p.cal = append(p.cal, cal.pass())
		f0 := b.eng.Fired()
		simStart := b.eng.Now()
		cpu0 := cpuTime()
		tr.beginM(spRound)
		t0 := time.Now()
		w.round(o.ops)
		dt := time.Since(t0)
		tr.end()
		usPerOp := float64(dt.Nanoseconds()) / 1e3 / float64(o.ops)
		if traced {
			tr.flush(i)
			p.wallTr = append(p.wallTr, usPerOp)
			p.wallTraced += dt
			p.tracedOps += int64(o.ops)
		} else {
			p.wall = append(p.wall, usPerOp)
			untraced = append(untraced, i)
			p.wallUntraced += dt
			p.cpuUntraced += cpuTime() - cpu0
			p.firedUntraced += b.eng.Fired() - f0
			p.untracedOps += int64(o.ops)
		}
		p.simBusy += m.lastDone.Sub(simStart)
		p.pendingSum += float64(b.eng.Pending())
		p.checkBad += w.check()
		p.rounds++
		if !stop.IsZero() && time.Now().After(stop) {
			break
		}
	}
	p.cal = append(p.cal, cal.pass())
	runtime.ReadMemStats(&p.ms1)
	p.k1 = readCounters(b.c)
	if tr != nil {
		tr.on = false
	}
	// Round i ran between passes i and i+1; the calibWindow passes either
	// side of it say how fast the host was then.
	for j, i := range untraced {
		near := p.cal[max(0, i+1-calibWindow):min(len(p.cal), i+1+calibWindow)]
		p.scaled = append(p.scaled, p.wall[j]*speed(near))
	}
	return p
}

// measure runs one workload once. With tracing off it reports the
// end-to-end metrics; with tracing on it alternates untraced and traced
// rounds on one world and reports the per-layer metrics.
//
// The measured rounds are spread over o.worlds worlds built one after the
// other, each from its own seed derived from o.seed: two worlds of one
// process differ in host time per op by up to a fifth, whatever the seed
// (where their memory happens to land), and every set-up that setup_s needs
// is a world that is measured too. Every round's host time is scaled to the
// reference host by the calibration passes next to it (calib.go).
// host_us_per_op is the lower quartile of the scaled rounds of all worlds:
// a round that an interrupt or a neighbour's burst hit lies above it, and
// over runs of one commit it spreads half as much as their median does.
// setup_s is the median of the scaled set-ups.
func measure(s *spec, o runOpts) (*result, *tracer) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
		o.worlds = 1
	}
	perWorld := (o.rounds + o.worlds - 1) / o.worlds
	m := &rec{lat: make([]uint32, o.worlds*perWorld*o.ops)}
	harnessBytes := uint64(len(m.lat)) * 4

	var stop time.Time
	if o.maxWall > 0 {
		stop = time.Now().Add(o.maxWall)
	}
	cal := newCalibrator()
	var setups, scaled, wall, passes []float64
	var mallocs uint64
	var simBusy sim.Duration
	var failed int64
	var live float64
	var p *phase
	var b *base
	rounds := 0
	for i := 0; i < o.worlds; i++ {
		runtime.GC()
		w, d := setup(s, o, o.seed+uint64(i)*0x9e3779b97f4a7c15, tr, cal)
		setups = append(setups, d)
		b = w.core()
		failed += b.r.failed + w.check()
		b.r = m
		p = runRounds(w, o, perWorld, tr, cal, stop)
		scaled = append(scaled, p.scaled...)
		wall = append(wall, p.wall...)
		passes = append(passes, p.cal...)
		mallocs += p.ms1.Mallocs - p.ms0.Mallocs
		simBusy += p.simBusy
		failed += p.checkBad
		rounds += p.rounds
		if i == o.worlds-1 && !o.trace {
			// live_heap_mb: HeapAlloc after two collections at the end of the
			// last measured round, a fixed point of the trajectory, so it
			// repeats. The driver's own sample buffer is taken out.
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			live = float64(ms.HeapAlloc-harnessBytes) / 1e6
			runtime.KeepAlive(w)
		}
	}

	ops := float64(m.attempted)
	res := &result{
		Workload: s.name, Seed: o.seed, Rounds: rounds, Ops: o.ops,
		Attempted: m.attempted, Failed: m.failed + failed,
		Digest:    fmt.Sprintf("%016x", m.digest),
		Samples:   m.nlat,
		Truncated: rounds < o.worlds*perWorld,
		HostRound: wall, Calib: passes,
		Metrics: map[string]metric{},
	}
	res.Correct = res.Failed == 0 && m.attempted > 0
	sortedWall := slices.Clone(wall)
	slices.Sort(sortedWall)
	res.HostP50 = sortedWall[len(sortedWall)/2]
	res.HostP90 = sortedWall[len(sortedWall)*9/10]

	lat := slices.Clone(m.lat[:m.nlat])
	slices.Sort(lat)
	latQ := func(q float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return float64(lat[int(q*float64(len(lat)-1))]) / 1e3
	}

	if !o.trace {
		res.put("setup_s", median(setups), "s")
		res.put("host_us_per_op", lowerQuartile(scaled), "us")
		res.put("allocs_per_op", per(float64(mallocs), ops), "count")
		res.put("live_heap_mb", live, "MB")
		res.put("sim_lat_p50_us", latQ(0.50), "sim_us")
		res.put("sim_lat_p99_us", latQ(0.99), "sim_us")
		res.put("sim_ops_per_s", per(float64(m.completed-m.failed), simBusy.Seconds()), "ops/sim_s")
		res.put("sim_goodput_gbps", per(float64(m.bytes)*8/1e9, simBusy.Seconds()), "Gbit/sim_s")
		return res, nil
	}

	res.Trace = 1
	k0, k1 := p.k0, p.k1
	d := func(a, b int64) float64 { return float64(b - a) }
	kop := ops / 1e3
	res.put("sim.events_per_op", per(float64(k1.fired-k0.fired), ops), "count")
	res.put("sim.host_ns_per_event", per(float64(p.wallUntraced.Nanoseconds()), float64(p.firedUntraced)), "ns")
	res.put("sim.pending_events", per(p.pendingSum, float64(rounds)), "count")
	res.put("sim.sim_s_per_host_s", per(simBusy.Seconds(), (p.wallUntraced+p.wallTraced).Seconds()), "ratio")

	res.put("fabric.pkts_per_op", per(d(k0.pkts, k1.pkts), ops), "count")
	res.put("fabric.data_bytes_per_op", per(d(k0.dataBytes, k1.dataBytes), ops), "B")
	res.put("fabric.ecn_marks_per_kop", per(d(k0.ecn, k1.ecn), kop), "count")
	res.put("fabric.pause_tx_per_kop", per(d(k0.pause, k1.pause), kop), "count")
	res.put("fabric.drops_per_kop", per(d(k0.drops, k1.drops), kop), "count")
	res.put("fabric.rerouted_per_kop", per(d(k0.rerouted, k1.rerouted), kop), "count")

	res.put("rnic.pkts_sent_per_op", per(d(k0.nicPkts, k1.nicPkts), ops), "count")
	res.put("rnic.acks_per_op", per(d(k0.nicAcks, k1.nicAcks), ops), "count")
	res.put("rnic.retransmits_per_kop", per(d(k0.retx, k1.retx), kop), "count")
	res.put("rnic.rnr_naks_per_kop", per(d(k0.rnr, k1.rnr), kop), "count")
	res.put("rnic.seq_naks_per_kop", per(d(k0.seqNak, k1.seqNak), kop), "count")
	res.put("rnic.cnp_per_kop", per(d(k0.cnp, k1.cnp), kop), "count")
	miss, hit := d(k0.qpMiss, k1.qpMiss), d(k0.qpHit, k1.qpHit)
	res.put("rnic.qp_cache_miss_ratio", per(miss, miss+hit), "ratio")
	res.put("rnic.access_errors", d(k0.acErr, k1.acErr), "count")
	var liveQPs, openCh int
	var memOcc int64
	for _, n := range b.c.Nodes {
		liveQPs += n.NIC.NumQPs()
		openCh += n.Ctx.NumChannels()
		memOcc += n.Ctx.Mem.OccupiedBytes()
	}
	res.put("rnic.live_qps", float64(liveQPs), "count")

	polls := d(k0.polls, k1.polls)
	res.put("xrdma.polls_per_op", per(polls, ops), "count")
	res.put("xrdma.cqes_per_poll", per(d(k0.dispatched, k1.dispatched), polls), "ratio")
	res.put("xrdma.event_wakes_per_kop", per(d(k0.wakes, k1.wakes), kop), "count")
	res.put("xrdma.slow_polls_per_kop", per(d(k0.slowPolls, k1.slowPolls), kop), "count")
	res.put("xrdma.acks_per_op", per(d(k0.acks, k1.acks), ops), "count")
	res.put("xrdma.nops_per_kop", per(d(k0.nops, k1.nops), kop), "count")
	res.put("xrdma.window_stalls_per_kop", per(math.Max(0, d(k0.stalls, k1.stalls)), kop), "count")
	res.put("xrdma.large_msgs_per_op", per(math.Max(0, d(k0.large, k1.large)), ops), "count")
	res.put("xrdma.keepalive_probes_per_kop", per(d(k0.kaProbes, k1.kaProbes), kop), "count")
	res.put("xrdma.req_retries_per_kop", per(d(k0.reqRetries, k1.reqRetries), kop), "count")
	res.put("xrdma.channels_broken", d(k0.broken, k1.broken), "count")
	res.put("xrdma.open_channels_end", float64(openCh), "count")
	res.put("xrdma.memcache_occupied_mb", float64(memOcc)/1e6, "MB")

	res.put("runtime.alloc_bytes_per_op", per(float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc), ops), "B")
	res.put("runtime.gc_cycles_per_mop", per(float64(p.ms1.NumGC-p.ms0.NumGC), ops/1e6), "count")
	res.put("runtime.gc_pause_ms", float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs)/1e6, "ms")
	res.put("runtime.cpu_us_per_op", per(float64(p.cpuUntraced.Nanoseconds())/1e3, float64(p.untracedOps)), "us")

	tops := float64(p.tracedOps)
	res.put("harness.callback_ns_per_op", per(float64(tr.selfNs(spCallback)), tops), "ns")
	res.put("harness.host_us_per_op_median", median(p.wall), "us")
	res.put("harness.host_speed", speed(passes), "ratio")
	res.put("harness.trace_overhead_pct", 100*(per(slices.Min(p.wallTr), slices.Min(p.wall))-1), "%")
	res.put("harness.op_fail_ratio", per(float64(res.Failed), ops), "ratio")
	for _, id := range []spanID{spRound, spRun, spSendMsg, spReply, spReadRemote, spWriteRemote, spConnect, spClose} {
		res.put(spanNames[id]+".self_ns_per_op", per(float64(tr.selfNs(id)), tops), "ns")
	}
	// cluster.New runs once, in set-up; it is spread over the traced ops so
	// that every span row has one unit.
	res.put(spanNames[spClusterNew]+".self_ns_per_op", per(float64(tr.selfNs(spClusterNew)), tops), "ns")
	return res, tr
}
