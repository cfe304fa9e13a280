package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

// E23 "storm": the one-sided transactional dataplane, after Storm
// (arXiv:1902.02411). A server exposes its KV table as an MR window;
// entries are seqlock-framed ([head ver][seq][data][tail ver]). Readers
// GET speculatively with one RDMA READ and validate the version pair
// locally — head==tail and even means the snapshot is consistent; any
// mismatch means a writer's critical section was caught in flight and
// the client falls back to a GET RPC. PUTs always ride RPC (the server
// owns the write path and holds each entry's seqlock for a modelled
// critical section). Three read/write mixes run on both planes:
//
//	rpc        every GET is a request/response — the responder's CPU is
//	           on every read's critical path
//	one-sided  speculative READ + validation, RPC fallback only under
//	           write contention
//
// The Storm tradeoff this reproduces: at read-mostly mixes the
// one-sided GET beats RPC on latency and the responder handles almost
// no messages; as the write share grows, validation failures route an
// increasing share of reads through the RPC fallback, narrowing the
// gap. Safety is absolute at every mix: zero stale reads (validated
// snapshot ≥ the last acknowledged write at issue time, payload
// bit-consistent with its version), zero duplicated or lost PUTs.
//
// The digest is a pure function of the seed — bit-identical across
// reruns beside the other worlds (TestWorlds/storm).

const (
	stormKeys     = 8
	stormValBytes = 248 // 8-byte embedded seq + 240 pattern bytes
	stormSlot     = 8 + stormValBytes + 8
	stormOpsQuick = 300
	stormOpsFull  = 1200
	stormSpan     = 1200 * sim.Microsecond // issue window for each op class
	stormHold     = 6 * sim.Microsecond    // server-side write critical section
)

const (
	stormOpPut = 1
	stormOpGet = 2
)

// stormPattern fills b with the deterministic payload for (key, seq).
func stormPattern(key int, seq uint64, b []byte) {
	for i := range b {
		b[i] = byte(uint64(key)*31 + seq*7 + uint64(i)*13 + 5)
	}
}

func stormPatternOK(key int, seq uint64, b []byte) bool {
	for i := range b {
		if b[i] != byte(uint64(key)*31+seq*7+uint64(i)*13+5) {
			return false
		}
	}
	return true
}

// stormServer owns the table: the exposed window is the one-sided view,
// vals is the authoritative copy RPC reads serve from, and the per-key
// seqlock is held for stormHold around every window mutation.
type stormServer struct {
	eng     *sim.Engine
	win     *xrdma.Window
	vals    [stormKeys][]byte
	busy    [stormKeys]bool
	pending [stormKeys][]func()
	msgs    int
	puts    *ledger // key<<32 | seq: the writer's exactly-once account
}

func (s *stormServer) serve(m *xrdma.Msg) {
	s.msgs++
	switch m.Data[0] {
	case stormOpGet:
		k := int(m.Data[1])
		m.Reply(s.vals[k], 0)
	case stormOpPut:
		k := int(m.Data[1])
		seq := binary.LittleEndian.Uint64(m.Data[2:])
		s.put(k, seq, m)
	}
}

// put runs one seqlock critical section: head goes odd immediately, the
// data and tail land stormHold later, and only then does head return to
// even and the PUT get acknowledged. Overlapping PUTs to one key queue
// behind the lock.
func (s *stormServer) put(k int, seq uint64, m *xrdma.Msg) {
	if s.busy[k] {
		s.pending[k] = append(s.pending[k], func() { s.put(k, seq, m) })
		return
	}
	s.busy[k] = true
	s.puts.deliver(uint64(k)<<32 | seq)
	slot := s.win.Bytes()[k*stormSlot : (k+1)*stormSlot]
	binary.LittleEndian.PutUint64(slot, 2*seq-1) // head odd: write in flight
	s.eng.AfterBg(stormHold, func() {
		val := make([]byte, stormValBytes)
		binary.LittleEndian.PutUint64(val, seq)
		stormPattern(k, seq, val[8:])
		copy(slot[8:], val)
		binary.LittleEndian.PutUint64(slot[8+stormValBytes:], 2*seq) // tail
		binary.LittleEndian.PutUint64(slot, 2*seq)                   // head even: stable
		s.vals[k] = val
		s.busy[k] = false
		m.Reply([]byte("OK"), 0)
		if q := s.pending[k]; len(q) > 0 {
			s.pending[k] = q[1:]
			q[0]()
		}
	})
}

// stormArm is one (mix, plane) run.
type stormArm struct {
	Name string

	Gets      int // GETs issued
	SpecOK    int // speculative READs that validated
	Fallbacks int // validation failures routed to the RPC fallback
	Puts      int // PUTs issued
	GetErrs   int // GETs that completed with an error (must be 0)
	GetsLost  int // GETs that never completed (must be 0)
	Stale     int // validated GETs older than the acked floor (must be 0)
	puts      tally

	ServerMsgs int // responder handler invocations — the CPU-cost proxy
	P50, P99   sim.Duration

	// Chaos-arm observables (not part of the digest schema decision —
	// deterministic like everything else, but only claimed by the
	// brownout arm).
	Retransmits int64
	AccessErrs  int64
	BlameTop    telemetry.Stage
	BlameMsgs   int64

	WinHash uint64
}

// lost counts the GETs and PUTs that never completed.
func (a *stormArm) lost() int { return a.GetsLost + a.Puts - a.puts.Resps + a.puts.Lost }

// runStormArm drives one arm on a fresh SmallClos world: reader node 0
// and writer node 1 (pod0-tor0) against server node 4 (pod0-tor1), so
// every op crosses the leaf tier. fault browns out the reader's spine
// path mid-run — recovery must come from the shared go-back-N machinery
// (retransmits), never from a second reliability plane.
func runStormArm(sc Scale, name string, onesided bool, gets, puts int, fault bool) *stormArm {
	a := &stormArm{Name: name, Gets: gets, Puts: puts}
	nic := grayNIC() // RetransTimeout 1 ms, RetryLimit 12: brownouts are survivable
	c := sc.cluster("storm/"+name, cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   nic,
		Nodes:    8,
		Config:   func(_ int, cfg *xrdma.Config) { blameKnobs(cfg) },
	})
	eng := c.Eng

	srv := &stormServer{eng: eng, puts: newLedger()}
	var winID uint64
	c.Nodes[4].Ctx.ExposeWindow(stormKeys*stormSlot, func(w *xrdma.Window, err error) {
		if err != nil {
			panic(fmt.Sprintf("storm: expose: %v", err))
		}
		srv.win = w
		winID = w.ID
	})
	eng.Run()
	if srv.win == nil {
		panic("storm: window never registered")
	}
	for k := 0; k < stormKeys; k++ {
		slot := srv.win.Bytes()[k*stormSlot : (k+1)*stormSlot]
		val := make([]byte, stormValBytes)
		stormPattern(k, 0, val[8:])
		copy(slot[8:], val)
		srv.vals[k] = val
	}

	c.ListenAll(7600, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(srv.serve)
		ch.GrantWindow(srv.win)
	})
	cs := c.Establish([][2]int{{0, 4}, {1, 4}}, 7600)
	reader, writer := cs[0], cs[1]
	rw, haveWin := reader.PeerWindow(winID)
	if !haveWin {
		panic("storm: window grant never arrived")
	}

	// Deterministic key sequences, shared between the rpc and one-sided
	// planes of the same mix so the workloads are identical.
	rng := sim.NewRNG(sc.Seed ^ uint64(gets)<<20 ^ uint64(puts))
	getKeys := make([]int, gets)
	for i := range getKeys {
		getKeys[i] = rng.Intn(stormKeys)
	}
	putKeys := make([]int, puts)
	putSeq := make([]uint64, puts)
	var nextSeq [stormKeys]uint64
	for i := range putKeys {
		k := rng.Intn(stormKeys)
		nextSeq[k]++
		putKeys[i], putSeq[i] = k, nextSeq[k]
	}

	// acked[k] is the newest PUT seq acknowledged to the writer — the
	// linearizability floor every later GET must see.
	var acked [stormKeys]uint64
	var lats []sim.Duration
	done := 0

	finish := func(k int, floor uint64, t0 sim.Time, val []byte) {
		seq := binary.LittleEndian.Uint64(val)
		if seq < floor || !stormPatternOK(k, seq, val[8:]) {
			a.Stale++
		}
		lats = append(lats, eng.Now().Sub(t0))
		done++
	}
	rpcGet := func(k int, floor uint64, t0 sim.Time) {
		req := []byte{stormOpGet, byte(k)}
		reader.SendMsg(req, 0, func(m *xrdma.Msg, err error) {
			if err != nil {
				a.GetErrs++
				return
			}
			finish(k, floor, t0, m.Data)
		})
	}
	issueGet := func(k int) {
		floor := acked[k]
		t0 := eng.Now()
		if !onesided {
			rpcGet(k, floor, t0)
			return
		}
		reader.ReadRemote(rw, uint64(k*stormSlot), stormSlot, func(b []byte, err error) {
			if err == nil {
				head := binary.LittleEndian.Uint64(b)
				tail := binary.LittleEndian.Uint64(b[8+stormValBytes:])
				seq := binary.LittleEndian.Uint64(b[8:])
				if head == tail && head%2 == 0 && seq*2 == head {
					a.SpecOK++
					finish(k, floor, t0, b[8:8+stormValBytes])
					return
				}
			} else {
				a.GetErrs++
			}
			// Contention (or a degraded plane): the write-RPC dataplane is
			// the fallback, exactly as Storm prescribes.
			a.Fallbacks++
			rpcGet(k, floor, t0)
		})
	}

	// Issue times are drawn uniformly over the span rather than gridded:
	// a fixed tick would phase-lock READ arrivals against the write
	// critical sections and deterministically dodge (or hit) contention.
	start := eng.Now()
	for i := 0; i < gets; i++ {
		k := getKeys[i]
		at := sim.Duration(1 + rng.Int63n(int64(stormSpan)))
		eng.AfterBg(at, func() { issueGet(k) })
	}
	if puts > 0 {
		// Sorted issue times: seqs were assigned in schedule order, so
		// per-key writes must leave the writer in that same order.
		times := make([]sim.Duration, puts)
		for i := range times {
			times[i] = sim.Duration(1 + rng.Int63n(int64(stormSpan)))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := 0; i < puts; i++ {
			k, seq := putKeys[i], putSeq[i]
			eng.AfterBg(times[i], func() {
				req := make([]byte, 10)
				req[0], req[1] = stormOpPut, byte(k)
				binary.LittleEndian.PutUint64(req[2:], seq)
				id := uint64(k)<<32 | seq
				srv.puts.send(id, writer.SendMsg(req, 0, func(_ *xrdma.Msg, err error) {
					if err != nil {
						return
					}
					if seq > acked[k] {
						acked[k] = seq
					}
					srv.puts.respond(id)
				}))
			})
		}
	}

	if fault {
		inj := chaos.New(c)
		inj.Schedule([]chaos.Step{{At: 200 * sim.Microsecond, Name: "storm brownout", Do: func(i *chaos.Injector) {
			idx := fabric.ECMPIndex(reader.FlowHash(), 2)
			i.Brownout("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idx), 0.25, 0, 10*sim.Microsecond)
		}}})
	}

	horizon := 10 * sim.Millisecond
	if fault {
		// Brownout recovery is RTO-paced (1 ms timer): leave room for the
		// unluckiest read to retransmit several times.
		horizon = 80 * sim.Millisecond
	}
	eng.RunUntil(start.Add(horizon))

	a.puts = srv.puts.settle()
	a.GetsLost = gets - done - a.GetErrs
	a.ServerMsgs = srv.msgs
	a.P50 = grayPercentile(lats, 0.50)
	a.P99 = grayPercentile(lats, 0.99)
	a.Retransmits = c.Nodes[0].NIC.Counters.Retransmits
	a.AccessErrs = c.Nodes[4].NIC.Counters.AccessErrors
	blame := c.Nodes[0].Ctx.Telemetry().Blame
	a.BlameTop, _ = blame.Top()
	a.BlameMsgs = blame.Count()

	// Window hash: the final seqlock state of every entry, in key order.
	h := fnv.New64a()
	h.Write(srv.win.Bytes())
	var b8 [8]byte
	for k := 0; k < stormKeys; k++ {
		binary.LittleEndian.PutUint64(b8[:], binary.LittleEndian.Uint64(srv.vals[k]))
		h.Write(b8[:])
	}
	a.WinHash = h.Sum64()
	return a
}

// Storm runs E23: three mixes × two planes.
func Storm(sc Scale) Result {
	ops := pick(sc, stormOpsQuick, stormOpsFull)
	mixes := []struct {
		name       string
		gets, puts int
	}{
		{"read100", ops, 0},
		{"read95", ops * 95 / 100, ops * 5 / 100},
		{"read50", ops / 2, ops / 2},
	}
	t := Table{
		ID:    "E23/Storm",
		Title: "Storm-style KV: speculative one-sided GET + version validation vs RPC",
		Header: []string{"arm", "gets", "spec", "fallback", "puts",
			"p50", "p99", "srv msgs", "stale", "dups", "lost"},
	}
	var digest []string
	var claims []Claim
	for _, m := range mixes {
		rpc := runStormArm(sc, m.name+"/rpc", false, m.gets, m.puts, false)
		one := runStormArm(sc, m.name+"/one-sided", true, m.gets, m.puts, false)
		for _, a := range []*stormArm{rpc, one} {
			t.Addf(a.Name, a.Gets, a.SpecOK, a.Fallbacks, a.Puts,
				a.P50.String(), a.P99.String(), a.ServerMsgs, a.Stale, a.puts.Dups, a.lost())
			digest = append(digest, fmt.Sprintf("arm %s gets=%d spec=%d fb=%d puts=%d errs=%d stale=%d dups=%d lost=%d srvmsgs=%d p50=%v p99=%v win=%016x",
				a.Name, a.Gets, a.SpecOK, a.Fallbacks, a.Puts, a.GetErrs,
				a.Stale, a.puts.Dups, a.lost(), a.ServerMsgs, a.P50, a.P99, a.WinHash))
			id := "E23/" + a.Name
			claims = append(claims, a.puts.claims(id+"/puts", a.Puts)...)
			claims = append(claims,
				within(id+"/gets-lost", "0", float64(a.GetsLost), 0, 0),
				within(id+"/get-errors", "0", float64(a.GetErrs), 0, 0),
				within(id+"/stale", "0", float64(a.Stale), 0, 0),
				within(id+"/access-errors", "0", float64(a.AccessErrs), 0, 0))
		}
		// Reads never perturb the table: the final store state is the
		// same on both planes.
		id := "E23/" + m.name
		claims = append(claims, shape(id+"/same-store", "plane-independent", rpc.WinHash == one.WinHash))
		switch m.name {
		case "read100":
			// No writers: every READ validates.
			claims = append(claims,
				within(id+"/one-sided-fallbacks", "0", float64(one.Fallbacks), 0, 0),
				within(id+"/one-sided-spec", "every GET", float64(one.SpecOK), float64(one.Gets), float64(one.Gets)))
			fallthrough
		case "read95":
			// One-sided GETs beat RPC and offload the responder's CPU.
			claims = append(claims,
				within(id+"/one-sided-p50-µs", "< RPC", one.P50.Micros(), -inf, below(rpc.P50.Micros())),
				within(id+"/one-sided-p99-µs", "< RPC", one.P99.Micros(), -inf, below(rpc.P99.Micros())),
				within(id+"/one-sided-srv-msgs", "≪ RPC", float64(one.ServerMsgs), -inf, below(float64(rpc.ServerMsgs/2))))
		case "read50":
			// Write contention catches a critical section in flight.
			claims = append(claims, within(id+"/one-sided-fallbacks", "fallback engages", float64(one.Fallbacks), 1, inf))
		}
	}
	t.Notes = append(t.Notes,
		"one-sided GET: single RDMA READ of the seqlock-framed entry, validated locally (head==tail, even, seq consistent)",
		"validation failure = a writer's critical section caught in flight → GET retried over the RPC fallback",
		"srv msgs counts responder handler invocations: the responder-CPU cost the one-sided plane removes",
		"stale counts validated reads older than the acked floor at issue — the transactional guarantee (must be 0)")
	return Result{Tables: []*Table{&t}, Digest: digest, Claims: claims}
}

// StormBrownout browns out the reader's spine path mid-run: every
// speculative READ must still complete via the shared go-back-N machinery
// — retransmits on the reader's own QP, zero stale reads, zero fallbacks
// (loss is not contention), and the blame plane pinning the inflated tail
// on read.fetch. No second reliability plane exists to hide behind. It is
// a gate, not a table: it prints nothing, so it is not observed either.
func StormBrownout(sc Scale) Result {
	sc.Observe = nil
	a := runStormArm(sc, "brownout/one-sided", true, 200, 0, true)
	id := "E23/brownout"
	return Result{Claims: []Claim{
		within(id+"/lost", "0", float64(a.lost()), 0, 0),
		within(id+"/get-errors", "0", float64(a.GetErrs), 0, 0),
		within(id+"/stale", "0", float64(a.Stale), 0, 0),
		within(id+"/fallbacks", "0", float64(a.Fallbacks), 0, 0),
		within(id+"/retransmits", "the fault bites", float64(a.Retransmits), 1, inf),
		within(id+"/blame-msgs", "traced", float64(a.BlameMsgs), 1, inf),
		shape(id+"/blame-top", telemetry.StageReadFetch.String(), a.BlameTop == telemetry.StageReadFetch),
	}}
}
