package xrdma

import (
	"encoding/binary"
	"fmt"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/verbs"
)

// sharedQPs lists a context's live shared QPs in creation order.
func sharedQPs(c *Context) []*link {
	var out []*link
	for _, l := range c.links {
		if l.shared() {
			out = append(out, l)
		}
	}
	return out
}

// muxKnobs enables QP multiplexing on every node.
func muxKnobs(qpsPerPeer int) func(int, *Config) {
	return func(_ int, cfg *Config) {
		cfg.QPsPerPeer = qpsPerPeer
	}
}

// openMuxed opens n client channels from ctx i to ctx j over the mux
// plane and waits for every attach to complete.
func openMuxed(t testing.TB, w *testWorld, i, j, port, n int) ([]*Channel, []*Channel) {
	t.Helper()
	var servers []*Channel
	w.ctxs[j].OnChannel(func(ch *Channel) { servers = append(servers, ch) })
	if err := w.ctxs[j].Listen(port); err != nil {
		t.Fatal(err)
	}
	clients := make([]*Channel, 0, n)
	for k := 0; k < n; k++ {
		w.ctxs[i].Connect(fabric.NodeID(j), port, func(ch *Channel, err error) {
			if err != nil {
				t.Fatalf("mux connect: %v", err)
			}
			clients = append(clients, ch)
		})
	}
	w.eng.Run()
	if len(clients) != n || len(servers) != n {
		t.Fatalf("established %d client / %d server channels, want %d", len(clients), len(servers), n)
	}
	return clients, servers
}

// TestMuxManyChannelsShareQPPool: N channels to the same peer must ride
// exactly QPsPerPeer shared QPs — the §III Issue 1 scaling fix — and
// plain request-response must work on every one of them.
func TestMuxManyChannelsShareQPPool(t *testing.T) {
	const chans, pool = 12, 2
	w := newWorld(t, 2, muxKnobs(pool))
	clients, servers := openMuxed(t, w, 0, 1, 6000, chans)
	for _, srv := range servers {
		echoServer(srv)
	}

	if got := len(sharedQPs(w.ctxs[0])); got != pool {
		t.Fatalf("client created %d shared QPs, want %d", got, pool)
	}
	if got := len(sharedQPs(w.ctxs[1])); got != pool {
		t.Fatalf("server created %d shared QPs, want %d", got, pool)
	}
	if got := w.ctxs[0].NumChannels(); got != chans {
		t.Fatalf("NumChannels=%d, want %d", got, chans)
	}
	// Channels spread across the pool: no QP hoards them all.
	for _, mx := range sharedQPs(w.ctxs[0]) {
		if len(mx.riders) == 0 || len(mx.riders) == chans {
			t.Fatalf("degenerate channel placement: %d of %d on one QP", len(mx.riders), chans)
		}
	}

	// Every channel echoes independently.
	resps := 0
	for k, cli := range clients {
		payload := []byte(fmt.Sprintf("chan-%d", k))
		cli.SendMsg(payload, 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("echo on channel: %v", err)
			}
			resps++
		})
	}
	w.eng.Run()
	if resps != chans {
		t.Fatalf("%d of %d channels echoed", resps, chans)
	}
}

// TestMuxLazyAttachAndAdmission: ChannelTo returns a cheap descriptor —
// no QP, no windows, no dial — until the first send; with an admission
// cap the attach storm serializes but every channel still establishes.
func TestMuxLazyAttachAndAdmission(t *testing.T) {
	const chans = 8
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.QPsPerPeer = 2
		cfg.AttachAdmission = 2
	})
	var servers []*Channel
	w.ctxs[1].OnChannel(func(ch *Channel) {
		servers = append(servers, ch)
		echoServer(ch)
	})
	if err := w.ctxs[1].Listen(6001); err != nil {
		t.Fatal(err)
	}

	descs := make([]*Channel, 0, chans)
	for k := 0; k < chans; k++ {
		ch, err := w.ctxs[0].ChannelTo(1, 6001)
		if err != nil {
			t.Fatal(err)
		}
		descs = append(descs, ch)
	}
	// Descriptors are inert: no QPs dialed, nothing attached, no windows.
	if len(sharedQPs(w.ctxs[0])) != 0 {
		t.Fatalf("lazy descriptors dialed %d QPs", len(sharedQPs(w.ctxs[0])))
	}
	for _, ch := range descs {
		if ch.Attached() || ch.win.slots != nil || ch.pending != nil || ch.lk != nil {
			t.Fatal("descriptor carries eager state")
		}
	}

	// First send triggers attach; all eight complete despite the cap of 2.
	resps := 0
	for k, ch := range descs {
		payload := []byte(fmt.Sprintf("lazy-%d", k))
		if err := ch.SendMsg(payload, 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("lazy send: %v", err)
			}
			resps++
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.Run()
	if resps != chans {
		t.Fatalf("%d of %d lazy channels delivered", resps, chans)
	}
	for _, ch := range descs {
		if !ch.Attached() {
			t.Fatal("channel never attached")
		}
	}
	if len(servers) != chans {
		t.Fatalf("server accepted %d channels, want %d", len(servers), chans)
	}
}

// newMuxGrayWorld builds a world tuned for gray-failure drills: a deep
// RC retry horizon (the brownout must be absorbed by go-back-N, never
// escalate to hard failure) and compressed doctor clocks.
func newMuxGrayWorld(t testing.TB, n int, mutate func(i int, cfg *Config)) *testWorld {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	top := fabric.SmallClos()
	fabric.BuildClos(fab, top)
	net := verbs.NewCMNetwork()
	w := &testWorld{eng: eng, fab: fab}
	nicCfg := rnic.DefaultConfig()
	nicCfg.RetransTimeout = 1 * sim.Millisecond
	nicCfg.RetryLimit = 12
	for i := 0; i < n; i++ {
		host := fab.Host(fabric.NodeID(i))
		nic := rnic.New(eng, host, nicCfg)
		w.nics = append(w.nics, nic)
		vc := verbs.Open(nic)
		cm := verbs.NewCM(vc, net, host)
		cfg := DefaultConfig()
		cfg.PathRehashCooldown = 4 * sim.Millisecond
		cfg.StatsInterval = 1 * sim.Millisecond
		cfg.KeepaliveInterval = 5 * sim.Millisecond
		cfg.KeepaliveTimeout = 50 * sim.Millisecond
		if mutate != nil {
			mutate(i, &cfg)
		}
		tcp := tcpnet.New(eng, host)
		ctx := NewContext(Options{
			Verbs: vc, CM: cm, Host: host, Config: cfg,
			TCP: tcp, MockPort: 9000, Seed: uint64(i + 1),
		})
		w.ctxs = append(w.ctxs, ctx)
	}
	return w
}

// TestMuxPathDoctorRotatesOncePerQP: a gray link under a shared QP must
// be diagnosed once per QP — one flow-label rotation covering all
// channels, each of which observes the verdict transition.
func TestMuxPathDoctorRotatesOncePerQP(t *testing.T) {
	const chans = 5
	w := newMuxGrayWorld(t, 8, muxKnobs(1))
	clients, servers := openMuxed(t, w, 0, 4, 6003, chans) // cross-ToR: 2 uplinks
	for _, srv := range servers {
		echoServer(srv)
	}
	verdicts := make([]int, chans)
	for k, cli := range clients {
		k := k
		cli.OnPathVerdict(func(PathVerdict) { verdicts[k]++ })
	}

	// Brown out the exact uplink the shared QP hashes onto (loss +
	// corruption + added latency — the grayhaul fault shape).
	mx := sharedQPs(w.ctxs[0])[0]
	idx := fabric.ECMPIndex(clients[0].FlowHash(), 2)
	w.fab.SetLinkImpairment("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idx), 0.12, 0.05, 20*sim.Microsecond)

	// Steady traffic on every channel feeds the scorer.
	stop := false
	for _, cli := range clients {
		cli := cli
		var tick func()
		tick = func() {
			if stop {
				return
			}
			cli.SendMsg([]byte("gray"), 0, func(m *Msg, err error) {})
			w.eng.AfterBg(300*sim.Microsecond, tick)
		}
		w.eng.AfterBg(300*sim.Microsecond, tick)
	}
	w.eng.AfterBg(150*sim.Millisecond, func() {
		stop = true
		w.fab.SetLinkImpairment("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idx), 0, 0, 0)
	})
	w.eng.RunFor(300 * sim.Millisecond)

	if mx.doctor.rehashes == 0 {
		t.Fatal("sick path never rotated the flow label")
	}
	if got := w.ctxs[0].Stats.PathRehashes; got >= int64(chans) {
		t.Errorf("PathRehashes=%d for %d channels on 1 QP — per-channel amplification", got, chans)
	}
	for k, cli := range clients {
		if verdicts[k] == 0 {
			t.Errorf("channel %d never observed a verdict transition", k)
		}
		// The channel-level accessor reads the shared doctor.
		if cli.Rehashes() != mx.doctor.rehashes {
			t.Errorf("channel %d Rehashes=%d, shared doctor says %d", k, cli.Rehashes(), mx.doctor.rehashes)
		}
	}
}

// TestMuxChannelCloseIsolated: closing one muxed channel tears down both
// halves of that channel only — its shared QP and every sibling keep
// working.
func TestMuxChannelCloseIsolated(t *testing.T) {
	const chans = 4
	w := newWorld(t, 2, muxKnobs(1))
	clients, servers := openMuxed(t, w, 0, 1, 6004, chans)
	for _, srv := range servers {
		echoServer(srv)
	}
	var closedErr error
	closed := false
	servers[1].OnClose(func(err error) { closed = true; closedErr = err })

	clients[1].Close()
	w.eng.RunFor(5 * sim.Millisecond)
	if !closed || closedErr != nil {
		t.Fatalf("peer close: ran=%v err=%v, want clean close notification", closed, closedErr)
	}
	if w.ctxs[0].NumChannels() != chans-1 || w.ctxs[1].NumChannels() != chans-1 {
		t.Fatalf("channel counts after close: %d/%d, want %d",
			w.ctxs[0].NumChannels(), w.ctxs[1].NumChannels(), chans-1)
	}
	if len(sharedQPs(w.ctxs[0])) != 1 {
		t.Fatal("channel close killed the shared QP")
	}

	// Survivors still echo.
	resps := 0
	for k, cli := range clients {
		if k == 1 {
			continue
		}
		cli.SendMsg([]byte("still here"), 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("survivor echo: %v", err)
			}
			resps++
		})
	}
	w.eng.Run()
	if resps != chans-1 {
		t.Fatalf("%d of %d surviving channels echoed", resps, chans-1)
	}
}

// TestContextCloseLeavesNothing: a shared QP outlives its riders — the pool
// keeps it for the next attach — so closing every channel does not close it.
// Context.Close must: every link still listed gives up, its QP is destroyed
// (shared QPs are never cached) and its tables go. Before Close ended with
// giveUp it left each established shared link in c.links and c.qpnTab with
// its QP live on the NIC.
func TestContextCloseLeavesNothing(t *testing.T) {
	w := newWorld(t, 3, muxKnobs(2))
	openMuxed(t, w, 0, 1, 6006, 3) // two peers, both pool slots filled toward the first
	openMuxed(t, w, 0, 2, 6006, 2)
	if _, err := w.ctxs[0].ChannelTo(1, 6006); err != nil { // and a descriptor nobody attached
		t.Fatal(err)
	}
	if got := len(sharedQPs(w.ctxs[0])); got != 4 {
		t.Fatalf("%d shared QPs up before Close, want 4", got)
	}
	for _, c := range w.ctxs {
		c.Close()
	}
	w.eng.Run()
	w.checkAtRest(t, 0, 0, 0)
	for i, c := range w.ctxs {
		if n := c.QPs.Len(); n != 0 { // the ledger counts a cached QP as given back; a shared one must be destroyed
			t.Errorf("node %d: %d QPs cached after Close, want every shared QP destroyed", i, n)
		}
	}
}

// TestMuxGaugeLimitAggregates: past ChannelGaugeLimit, channels fold
// into one per-peer aggregate gauge row instead of 14 gauges each; the
// aggregate sums match the per-channel counters exactly.
func TestMuxGaugeLimitAggregates(t *testing.T) {
	const chans, limit = 6, 2
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.QPsPerPeer = 1
		cfg.ChannelGaugeLimit = limit
	})
	clients, servers := openMuxed(t, w, 0, 1, 6005, chans)
	for _, srv := range servers {
		echoServer(srv)
	}
	c := w.ctxs[0]
	snap := snapshot(w.eng)
	if got := len(rowKeys(snap, c.track)); got != limit {
		t.Fatalf("%d individually reported channels, want %d", got, limit)
	}
	if got := snap[c.track+".agg_channels"]; got != chans-limit {
		t.Fatalf("agg_channels=%d, want %d", got, chans-limit)
	}

	sends := 0
	for k, cli := range clients {
		for n := 0; n <= k; n++ { // distinct per-channel counts
			sends++
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, uint64(k<<8|n))
			cli.SendMsg(buf, 0, func(m *Msg, err error) {})
		}
	}
	w.eng.Run()

	snap = snapshot(w.eng)
	agg, ok := snap[c.track+".peeragg.1.sent"]
	if !ok {
		t.Fatal("no per-peer aggregate row in the snapshot")
	}
	var want int64
	for k, cli := range clients {
		if k < limit {
			continue // individually gauged
		}
		want += cli.Counters.MsgsSent
	}
	if agg != want {
		t.Fatalf("aggregate sent=%d, per-channel sum=%d", agg, want)
	}
	if n, ok := snap[c.track+".peeragg.1.chans"]; !ok || n != int64(chans-limit) {
		t.Fatalf("aggregate chans=%d ok=%v, want %d", n, ok, chans-limit)
	}

	// Closing an aggregated channel shrinks the aggregate.
	clients[chans-1].Close()
	w.eng.RunFor(5 * sim.Millisecond)
	if got := snapshot(w.eng)[c.track+".agg_channels"]; got != chans-limit-1 {
		t.Fatalf("agg_channels=%d after close, want %d", got, chans-limit-1)
	}
	_ = sends
}

// TestContextCloseDrainsInFlight: Close sends each shared rider's CHAN_CLOSE,
// behind a message still in flight, on a QP it then destroys; the flushed
// completions queue after the poller's last dispatch, and no poll follows.
// Close drains them itself, so the closed context ends with no record posted
// and the ledger clean.
func TestContextCloseDrainsInFlight(t *testing.T) {
	w := newWorld(t, 2, muxKnobs(1))
	clients, servers := openMuxed(t, w, 0, 1, 6007, 2)
	for _, srv := range servers {
		echoServer(srv)
	}
	clients[0].SendMsg(nil, 64, nil)
	w.ctxs[0].Close()
	w.eng.Run()
	if n := w.ctxs[0].posted.Len(); n != 0 {
		t.Errorf("closed context: %d records posted at rest", n)
	}
	w.checkAtRest(t, 0, 1)
}
