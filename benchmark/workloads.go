package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// spec is one workload of the benchmark. Work is fixed: warmRounds
// warm-up rounds, then rounds measured rounds of exactly ops ops each, so that
// simulated results, event counts and allocation counts are pure functions
// of the seed. rounds is sized for refSeconds of measuring at the commit
// that defined the benchmark; -seconds scales it. A round is kept near
// 25 ms of host time: the host's speed moves within seconds, and a round
// that short is over before the calibration passes around it are stale.
type spec struct {
	name   string
	ops    int
	rounds int
	build  func(seed uint64, ops int, tr *tracer) world
}

const (
	refSeconds = 10 // the measuring time the round counts below were sized for
	warmRounds = 10 // W, on every world
)

var specs = []*spec{
	{name: "pingpong_64B", ops: 3000, rounds: 360, build: buildPingpong},
	{name: "incast_128K", ops: 200, rounds: 300, build: buildIncast},
	{name: "onesided_4K", ops: 3000, rounds: 360, build: buildOnesided},
	{name: "mux_mesh_512B", ops: 1000, rounds: 300, build: buildMuxMesh},
	{name: "connect_churn", ops: 280, rounds: 300, build: buildChurn},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: %v", err))
	}
}

// connect dials every pair and drives the engine until all are up.
func (b *base) connect(pairs [][2]int) []*xrdma.Channel {
	var chs []*xrdma.Channel
	b.c.ConnectPairs(pairs, listenPort, func(cs []*xrdma.Channel) { chs = cs })
	b.eng.Run()
	if len(chs) != len(pairs) {
		panic("benchmark: channels never established")
	}
	b.chs = append(b.chs, chs...)
	return chs
}

// fill writes a seeded pattern.
func fill(rng *sim.RNG, p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
}

// closedRound is a round of a closed loop: every slot issues one op and, in
// its completion callback, the next while b.left lasts.
func closedRound[S interface{ issue() }](b *base, n int, slots []S) {
	b.left = n
	for _, s := range slots {
		if b.left > 0 {
			s.issue()
		}
	}
	b.run()
}

// echo is the server side of the echo workloads: reply with a retained
// copy of the request.
func (b *base) echo(m *xrdma.Msg) {
	b.tr.begin(spCallback)
	data := m.Retain()
	b.tr.begin(spReply)
	err := m.Reply(data, 0)
	b.tr.end()
	if err != nil {
		b.r.failed++
	}
	b.tr.end()
}

// --- pingpong_64B -----------------------------------------------------------

// pingpong is a closed loop of one client at depth 1: 64 B request, the
// server echoes it.
type pingpong struct {
	base
	cli     *xrdma.Channel
	payload []byte
	op      uint64
	start   sim.Time
	onResp  func(*xrdma.Msg, error)
}

func buildPingpong(seed uint64, _ int, tr *tracer) world {
	w := &pingpong{payload: make([]byte, 64)}
	w.build(cluster.Options{Topology: fabric.SmallClos()}, seed, tr)
	w.c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) { ch.OnMessage(w.echo) })
	w.cli = w.connect([][2]int{{0, 5}})[0] // cross-ToR
	fill(w.rng, w.payload)
	w.onResp = w.resp
	return w
}

func (w *pingpong) round(n int) {
	w.left = n
	w.issue()
	w.run()
}

func (w *pingpong) issue() {
	w.left--
	w.op = w.begin()
	binary.LittleEndian.PutUint64(w.payload, w.op)
	w.start = w.eng.Now()
	w.tr.begin(spSendMsg)
	err := w.cli.SendMsg(w.payload, 0, w.onResp)
	w.tr.end()
	if err != nil {
		w.done(w.op, w.start, 0, false)
	}
}

func (w *pingpong) resp(m *xrdma.Msg, err error) {
	w.tr.begin(spCallback)
	ok := err == nil && bytes.Equal(m.Data, w.payload)
	w.done(w.op, w.start, 2*len(w.payload), ok)
	if w.left > 0 {
		w.issue()
	}
	w.tr.end()
}

func (w *pingpong) check() int64 { return w.checkDrained() }

// --- incast_128K ------------------------------------------------------------

const (
	incastReq   = 128 << 10
	incastReply = 64
)

// incast is eight clients at depth 4 sending 128 KiB requests to one
// server, which answers with 64 B.
type incast struct {
	base
	slots []*incastSlot
}

type incastSlot struct {
	w     *incast
	ch    *xrdma.Channel
	op    uint64
	start sim.Time
	cb    func(*xrdma.Msg, error)
}

func buildIncast(seed uint64, _ int, tr *tracer) world {
	w := &incast{}
	w.build(cluster.Options{Topology: fabric.ClusterClos(9), Nodes: 9}, seed, tr)
	w.c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) { ch.OnMessage(w.serve) })
	for _, ch := range w.connect(cluster.FanInPairs(9, 0)) {
		for d := 0; d < 4; d++ {
			s := &incastSlot{w: w, ch: ch}
			s.cb = s.resp
			w.slots = append(w.slots, s)
		}
	}
	return w
}

func (w *incast) serve(m *xrdma.Msg) {
	w.tr.begin(spCallback)
	ok := m.Len == incastReq
	w.tr.begin(spReply)
	err := m.Reply(nil, incastReply)
	w.tr.end()
	if err != nil || !ok {
		w.r.failed++
	}
	w.tr.end()
}

func (w *incast) round(n int) { closedRound(&w.base, n, w.slots) }

func (s *incastSlot) issue() {
	w := s.w
	w.left--
	s.op = w.begin()
	s.start = w.eng.Now()
	w.tr.begin(spSendMsg)
	err := s.ch.SendMsg(nil, incastReq, s.cb)
	w.tr.end()
	if err != nil {
		w.done(s.op, s.start, 0, false)
	}
}

func (s *incastSlot) resp(m *xrdma.Msg, err error) {
	w := s.w
	w.tr.begin(spCallback)
	w.done(s.op, s.start, incastReq+incastReply, err == nil && m.Len == incastReply)
	if w.left > 0 {
		s.issue()
	}
	w.tr.end()
}

func (w *incast) check() int64 { return w.checkDrained() }

// --- onesided_4K ------------------------------------------------------------

const (
	osWindow  = 1 << 20
	osHalf    = osWindow / 2
	osOp      = 4 << 10
	osClients = 4
	osStripe  = osHalf / osClients
)

// onesided is four clients at depth 4 against one exposed window: 90 %
// 4 KiB reads from the pre-patterned read-only half, 10 % 4 KiB writes into
// the client's own stripe of the other half.
type onesided struct {
	base
	win    *xrdma.Window
	shadow []byte // what the window must hold at every round end
	slots  []*osSlot
}

type osSlot struct {
	w       *onesided
	ch      *xrdma.Channel
	rw      xrdma.RemoteWindow
	client  int
	buf     []byte // write source, owned by the slot
	op      uint64
	off     int
	start   sim.Time
	onRead  func([]byte, error)
	onWrite func(error)
}

func buildOnesided(seed uint64, _ int, tr *tracer) world {
	w := &onesided{}
	w.build(cluster.Options{Topology: fabric.SmallClos()}, seed, tr)
	w.c.Nodes[5].Ctx.ExposeWindow(osWindow, func(win *xrdma.Window, err error) {
		must(err)
		w.win = win
	})
	w.eng.Run()
	w.shadow = make([]byte, osWindow)
	fill(w.rng, w.shadow[:osHalf])
	copy(w.win.Bytes(), w.shadow)
	w.c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) { ch.GrantWindow(w.win) })
	chs := w.connect([][2]int{{0, 5}, {1, 5}, {2, 5}, {3, 5}})
	w.eng.Run() // grants are ctrl frames; let them land
	for i, ch := range chs {
		rw, ok := ch.PeerWindow(w.win.ID)
		if !ok {
			panic("benchmark: window grant never arrived")
		}
		for d := 0; d < 4; d++ {
			s := &osSlot{w: w, ch: ch, rw: rw, client: i, buf: make([]byte, osOp)}
			fill(w.rng, s.buf)
			s.onRead, s.onWrite = s.readDone, s.writeDone
			w.slots = append(w.slots, s)
		}
	}
	return w
}

func (w *onesided) round(n int) { closedRound(&w.base, n, w.slots) }

func (s *osSlot) issue() {
	w := s.w
	w.left--
	s.op = w.begin()
	s.start = w.eng.Now()
	if w.rng.Intn(10) != 0 {
		s.off = w.rng.Intn((osHalf-osOp)/64+1) * 64
		w.tr.begin(spReadRemote)
		s.ch.ReadRemote(s.rw, uint64(s.off), osOp, s.onRead)
		w.tr.end()
		return
	}
	// Writes on one channel land in issue order, so the shadow can be
	// updated here.
	s.off = osHalf + s.client*osStripe + w.rng.Intn((osStripe-osOp)/64+1)*64
	binary.LittleEndian.PutUint64(s.buf, s.op)
	copy(w.shadow[s.off:], s.buf)
	w.tr.begin(spWriteRemote)
	s.ch.WriteRemote(s.rw, uint64(s.off), s.buf, 0, s.onWrite)
	w.tr.end()
}

func (s *osSlot) readDone(data []byte, err error) {
	w := s.w
	w.tr.begin(spCallback)
	ok := err == nil && bytes.Equal(data, w.shadow[s.off:s.off+osOp])
	s.next(ok)
	w.tr.end()
}

func (s *osSlot) writeDone(err error) {
	w := s.w
	w.tr.begin(spCallback)
	s.next(err == nil)
	w.tr.end()
}

func (s *osSlot) next(ok bool) {
	w := s.w
	w.done(s.op, s.start, osOp, ok)
	if w.left > 0 {
		s.issue()
	}
}

func (w *onesided) check() int64 {
	bad := w.checkDrained()
	if !bytes.Equal(w.win.Bytes(), w.shadow) {
		bad++
	}
	return bad
}

// --- mux_mesh_512B ----------------------------------------------------------

const (
	meshNodes    = 16
	meshPerPair  = 4
	meshReq      = 512
	meshReply    = 64
	meshGap      = 2 * sim.Microsecond // aggregate mean inter-arrival
	meshDeadline = sim.Millisecond     // after the round's last arrival
	meshBufs     = 1024                // request buffers in flight at once
)

// muxMesh is an open loop: Poisson arrivals over 960 channels multiplexed
// on shared QPs, 512 B request, 64 B reply. Arrivals are events in
// simulated time, so the generator is never late, and latency runs from
// the scheduled arrival.
type muxMesh struct {
	base
	mesh     []*xrdma.Channel
	bufs     [][]byte
	tag      uint64 // round tag in the high half of every request id
	n, next  int
	start    []sim.Time
	seen     []uint8 // server side: deliveries per request of this round
	answered []uint8 // client side: replies per request of this round
	opBase   uint64
	lastArr  sim.Time
	arriveFn func()
	onResp   func(*xrdma.Msg, error)
}

func buildMuxMesh(seed uint64, ops int, tr *tracer) world {
	w := &muxMesh{}
	w.build(cluster.Options{
		Topology: fabric.ClusterClos(meshNodes), Nodes: meshNodes,
		Config: func(_ int, cfg *xrdma.Config) { // the E22 settings
			cfg.QPsPerPeer = 2
			cfg.AttachAdmission = 16
			cfg.ChannelGaugeLimit = 8
		},
	}, seed, tr)
	w.c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) { ch.OnMessage(w.serve) })
	for a := 0; a < meshNodes; a++ {
		for b := 0; b < meshNodes; b++ {
			for k := 0; k < meshPerPair && a != b; k++ {
				ch, err := w.c.Nodes[a].Ctx.ChannelTo(w.c.Nodes[b].ID, listenPort)
				must(err)
				w.mesh = append(w.mesh, ch)
			}
		}
	}
	w.chs = w.mesh
	size := max(ops, len(w.mesh))
	w.start = make([]sim.Time, size)
	w.seen = make([]uint8, size)
	w.answered = make([]uint8, size)
	w.bufs = make([][]byte, meshBufs)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, meshReq)
		fill(w.rng, w.bufs[i])
	}
	w.arriveFn, w.onResp = w.arrive, w.resp
	// Attach every channel: one request each, all at once, through the
	// admission queue.
	w.reset(len(w.mesh))
	for i := range w.mesh {
		w.send(i, w.mesh[i])
	}
	w.run()
	if bad := w.check(); bad != 0 {
		panic(fmt.Sprintf("benchmark: mux attach left %d checks failing", bad))
	}
	return w
}

func (w *muxMesh) reset(n int) {
	w.tag++
	w.n, w.next = n, 0
	w.opBase = uint64(w.r.attempted)
	w.lastArr = sim.MaxTime - sim.Time(meshDeadline) // until the last arrival is known
	clear(w.seen[:n])
	clear(w.answered[:n])
}

func (w *muxMesh) round(n int) {
	w.reset(n)
	w.eng.After(w.rng.Exp(meshGap), w.arriveFn)
	w.run()
}

func (w *muxMesh) arrive() {
	w.tr.begin(spCallback)
	i := w.next
	w.next++
	w.send(i, w.mesh[w.rng.Intn(len(w.mesh))])
	if w.next < w.n {
		w.eng.After(w.rng.Exp(meshGap), w.arriveFn)
	} else {
		w.lastArr = w.eng.Now()
	}
	w.tr.end()
}

func (w *muxMesh) send(i int, ch *xrdma.Channel) {
	op := w.begin()
	buf := w.bufs[op%meshBufs]
	binary.LittleEndian.PutUint64(buf, w.tag<<32|uint64(i))
	w.start[i] = w.eng.Now()
	w.tr.begin(spSendMsg)
	err := ch.SendMsg(buf, 0, w.onResp)
	w.tr.end()
	if err != nil {
		w.done(op, w.start[i], 0, false)
	}
}

// index maps a request id back to its slot in this round's ledger.
func (w *muxMesh) index(data []byte) (int, bool) {
	if len(data) < 8 {
		return 0, false
	}
	id := binary.LittleEndian.Uint64(data)
	i := int(id & 0xffffffff)
	return i, id>>32 == w.tag && i < w.n
}

func (w *muxMesh) serve(m *xrdma.Msg) {
	w.tr.begin(spCallback)
	i, ok := w.index(m.Data)
	if ok && m.Len == meshReq {
		w.seen[i]++
	} else {
		w.r.failed++
	}
	w.tr.begin(spReply)
	err := m.Reply(m.Data[:meshReply], 0)
	w.tr.end()
	if err != nil {
		w.r.failed++
	}
	w.tr.end()
}

func (w *muxMesh) resp(m *xrdma.Msg, err error) {
	w.tr.begin(spCallback)
	if err != nil {
		w.r.failed++ // which request is unknown; check() finds it unanswered
	} else if i, ok := w.index(m.Data); !ok || m.Len != meshReply {
		w.r.failed++
	} else {
		w.answered[i]++
		late := w.eng.Now() > w.lastArr.Add(meshDeadline)
		w.done(w.opBase+uint64(i), w.start[i], meshReq+meshReply, !late)
	}
	w.tr.end()
}

// check is the exactly-once ledger: every request of the round delivered
// once and answered once.
func (w *muxMesh) check() int64 {
	bad := w.checkDrained()
	for i := 0; i < w.n; i++ {
		if w.seen[i] != 1 {
			bad++
		}
		if w.answered[i] > 1 {
			bad++ // unanswered ones are already in checkDrained
		}
	}
	return bad
}

// --- connect_churn ----------------------------------------------------------

// churn is eight concurrent dials: connect a seeded random pair, one 64 B
// echo, close both ends at the same simulated instant.
type churn struct {
	base
	dials []*churnDial
	open  int // Σ NumChannels before the round
}

type churnDial struct {
	w        *churn
	slot     int
	payload  []byte
	op       uint64
	start    sim.Time
	cli, srv *xrdma.Channel
	onConn   func(*xrdma.Channel, error)
	onResp   func(*xrdma.Msg, error)
}

func buildChurn(seed uint64, _ int, tr *tracer) world {
	w := &churn{}
	w.build(cluster.Options{Topology: fabric.SmallClos()}, seed, tr)
	w.c.ListenAll(listenPort, func(_ *cluster.Node, ch *xrdma.Channel) { ch.OnMessage(w.serve) })
	for i := 0; i < 8; i++ {
		d := &churnDial{w: w, payload: make([]byte, 64)}
		fill(w.rng, d.payload)
		d.payload[8] = byte(i)
		d.onConn, d.onResp = d.connected, d.resp
		w.dials = append(w.dials, d)
	}
	return w
}

func (w *churn) numChannels() int {
	n := 0
	for _, node := range w.c.Nodes {
		n += node.Ctx.NumChannels()
	}
	return n
}

func (w *churn) round(n int) {
	w.open = w.numChannels()
	closedRound(&w.base, n, w.dials)
}

func (d *churnDial) issue() {
	w := d.w
	w.left--
	d.op = w.begin()
	d.start = w.eng.Now()
	a := w.rng.Intn(len(w.c.Nodes))
	b := (a + 1 + w.rng.Intn(len(w.c.Nodes)-1)) % len(w.c.Nodes)
	w.tr.begin(spConnect)
	w.c.Connect(a, b, listenPort, d.onConn)
	w.tr.end()
}

func (d *churnDial) connected(ch *xrdma.Channel, err error) {
	w := d.w
	w.tr.begin(spCallback)
	if err == nil {
		d.cli = ch
		binary.LittleEndian.PutUint64(d.payload, d.op)
		w.tr.begin(spSendMsg)
		err = ch.SendMsg(d.payload, 0, d.onResp)
		w.tr.end()
	}
	if err != nil {
		d.finish(false)
	}
	w.tr.end()
}

// serve keeps the accepted server channel by the dial slot the request
// names, so the client callback can close both ends.
func (w *churn) serve(m *xrdma.Msg) {
	if len(m.Data) == 64 && int(m.Data[8]) < len(w.dials) {
		w.dials[m.Data[8]].srv = m.Ch
	}
	w.echo(m)
}

func (d *churnDial) resp(m *xrdma.Msg, err error) {
	w := d.w
	w.tr.begin(spCallback)
	d.finish(err == nil && bytes.Equal(m.Data, d.payload))
	w.tr.end()
}

func (d *churnDial) finish(ok bool) {
	w := d.w
	w.tr.begin(spClose)
	if d.cli != nil {
		d.cli.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	w.tr.end()
	ok = ok && d.cli != nil && d.srv != nil
	d.cli, d.srv = nil, nil
	w.done(d.op, d.start, 2*len(d.payload), ok)
	if w.left > 0 {
		d.issue()
	}
}

func (w *churn) check() int64 {
	bad := w.checkDrained()
	if w.numChannels() != w.open {
		bad++
	}
	return bad
}
