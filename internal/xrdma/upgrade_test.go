package xrdma

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/verbs"
)

// --- negotiation units -------------------------------------------------------

func TestNegotiateMatrix(t *testing.T) {
	v2caps := baselineCaps | capDrainHint
	cases := []struct {
		name string
		a, b offer
		ver  uint8
		caps uint32
		ok   bool
	}{
		{"v1-v1", offer{1, 1, baselineCaps}, offer{1, 1, baselineCaps}, 1, baselineCaps, true},
		{"v2-v1", offer{1, 2, v2caps}, offer{1, 1, baselineCaps}, 1, baselineCaps, true},
		{"v2-v2", offer{1, 2, v2caps}, offer{1, 2, v2caps}, 2, v2caps, true},
		{"disjoint", offer{2, 2, v2caps}, offer{1, 1, baselineCaps}, 0, 0, false},
		{"overlap-edge", offer{1, 2, capBlame}, offer{2, 3, baselineCaps}, 2, capBlame, true},
	}
	for _, tc := range cases {
		ver, caps, ok := negotiate(tc.a, tc.b)
		if ver != tc.ver || caps != tc.caps || ok != tc.ok {
			t.Errorf("%s: negotiate(%+v, %+v) = (%d, %#x, %v), want (%d, %#x, %v)",
				tc.name, tc.a, tc.b, ver, caps, ok, tc.ver, tc.caps, tc.ok)
		}
		// Negotiation must be symmetric.
		rver, rcaps, rok := negotiate(tc.b, tc.a)
		if rver != ver || rcaps != caps || rok != ok {
			t.Errorf("%s: negotiate is asymmetric", tc.name)
		}
	}
}

// TestHelloCodec: every purpose round-trips with and without the
// negotiation block; foreign bytes are a legacy peer, our magic with an
// unknown fmt or purpose is the loud verdict.
func TestHelloCodec(t *testing.T) {
	o := offer{minVer: 1, maxVer: 2, caps: baselineCaps | capDrainHint}
	for _, h := range []hello{
		{purpose: helloOpen},
		{purpose: helloMuxSlot, slot: 3},
		{purpose: helloMuxReattach, target: 7, target0: 5, dialer0: 6},
		{purpose: helloRecover, target: 17, target0: 15, dialer0: 16},
		{purpose: helloMock, target: 42, target0: 40, dialer0: 41},
	} {
		for _, neg := range []bool{false, true} {
			if h.neg = neg; neg {
				h.offer = o
			}
			got, v := parseHello(h.encode())
			if v != helloOK || got != h {
				t.Fatalf("roundtrip %+v: got %+v verdict=%d", h, got, v)
			}
		}
	}
	for name, b := range map[string][]byte{"nil": nil, "short": {1, 2, 3}, "foreign": {0xff, 0xff, helloFmt, byte(helloOpen)}} {
		if _, v := parseHello(b); v != helloNone {
			t.Fatalf("%s private data: verdict %d, want not-a-hello", name, v)
		}
	}
	future := hello{purpose: helloOpen}.encode()
	future[2] = helloFmt + 1
	unknown := hello{purpose: helloOpen}.encode()
	unknown[3] = byte(helloMock) + 1
	// A Mock hello from a build that named the link by one QPN (a 4-byte body).
	oldMock := hello{purpose: helloMock, target: 42}.encode()[:helloHdrSize+4]
	c := newWorld(t, 1, nil).ctxs[0]
	for name, b := range map[string][]byte{"future-fmt": future, "unknown-purpose": unknown, "short-body": hello{purpose: helloRecover}.encode()[:9], "4-byte-mock": oldMock} {
		before := c.Stats.VerMismatches
		if _, v := c.readHello(1, b); v != helloUnknown || c.Stats.VerMismatches != before+1 {
			t.Fatalf("%s: verdict %d counted %d times, want the loud one, once", name, v, c.Stats.VerMismatches-before)
		}
	}
}

// --- handoff blob hardening --------------------------------------------------

// sampleHandoff is a well-formed one-channel blob: a tenant label, a carried
// and a size-only tail message, and a granted window.
func sampleHandoff() handoff {
	return handoff{Ver: handoffVer, MsgSeq: 7, Chans: []handoffChan{{
		Peer: 1, QPN0: 100, PeerQPN: 56, PeerQPN0: 55, NegVer: 1, Caps: baselineCaps,
		Label: [8]byte{'t', 'e', 'n', 'a', 'n', 't', '-', 'a'}, TxFloor: 10, RxFloor: 12,
		Tail: []handoffMsg{
			{Kind: kindReq, MsgID: 11, Size: 3, Data: []byte("abc")},
			{Kind: kindResp, OneWay: true, MsgID: 3, Size: 64 << 10},
		},
		Wins: []RemoteWindow{{ID: 1, Addr: 0x10000, RKey: 7, Len: 65536}},
	}}}
}

// mutHandoff is sampleHandoff with one change.
func mutHandoff(mut func(*handoff)) handoff {
	h := sampleHandoff()
	mut(&h)
	return h
}

func marshalHandoff(tb testing.TB, h handoff) []byte {
	tb.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestHandoffDecodeHostile(t *testing.T) {
	good := marshalHandoff(t, sampleHandoff())
	if h, err := decodeHandoff(good); err != nil || !reflect.DeepEqual(*h, sampleHandoff()) {
		t.Fatalf("the well-formed blob every row corrupts: h=%+v err=%v", h, err)
	}
	// widen puts a number outside its field's width into the good blob.
	widen := func(from, to string) []byte {
		if !bytes.Contains(good, []byte(from)) {
			t.Fatalf("%s is not in %s", from, good)
		}
		return bytes.Replace(good, []byte(from), []byte(to), 1)
	}
	hostile := []struct {
		name string
		blob []byte
	}{
		{"nil", nil},
		{"not-json", []byte("XH\x01\x00\x07\x00\x00\x00")},
		{"truncated", good[:len(good)/2]},
		{"other-version", marshalHandoff(t, mutHandoff(func(h *handoff) { h.Ver = handoffVer + 1 }))},
		{"no-version", []byte(`{"MsgSeq":7}`)},
		{"kind-out-of-range", widen(`"Kind":0`, `"Kind":256`)},
		{"size-negative", widen(`"Size":3,`, `"Size":-1,`)},
		{"peer-out-of-range", widen(`"Peer":1,`, `"Peer":4294967296,`)},
		{"window-len-out-of-range", widen(`"Len":65536`, `"Len":4294967296`)},
		{"no-identity", marshalHandoff(t, mutHandoff(func(h *handoff) { h.Chans[0].QPN0 = 0 }))},
		{"tail-kind-ack", marshalHandoff(t, mutHandoff(func(h *handoff) { h.Chans[0].Tail[1].Kind = kindAck }))},
		{"tail-kind-large-req", marshalHandoff(t, mutHandoff(func(h *handoff) { h.Chans[0].Tail[0].Kind = kindLargeReq }))},
	}
	for _, tc := range hostile {
		if _, err := decodeHandoff(tc.blob); !errors.Is(err, errBadHandoff) {
			t.Errorf("%s: decodeHandoff = %v, want errBadHandoff", tc.name, err)
		}
	}

	// A well-formed empty blob decodes cleanly and carries the MsgID floor.
	h, err := decodeHandoff(marshalHandoff(t, handoff{Ver: handoffVer, MsgSeq: 7}))
	if err != nil || len(h.Chans) != 0 || h.MsgSeq != 7 {
		t.Fatalf("empty blob: h=%+v err=%v", h, err)
	}
}

// --- on-the-wire negotiation -------------------------------------------------

// TestVersionNegotiationWire drives the mixed-version establishment
// matrix: v2↔v2 settles on 2 with the drain-hint capability, any pairing
// with a legacy (no-hello) build settles on 1 with the baseline caps.
// (Disjoint ranges are TestEstablishmentConformance rows.)
func TestVersionNegotiationWire(t *testing.T) {
	w := newWorld(t, 3, func(i int, cfg *Config) {
		if i > 0 {
			cfg.ProtoVerMax = 2 // v2-capable, still speaks v1
		}
	})

	cli, srv := w.connect(t, 1, 2, 5000)
	if cli.NegotiatedVersion() != 2 || srv.NegotiatedVersion() != 2 {
		t.Fatalf("v2-v2 settled (%d, %d), want (2, 2)", cli.NegotiatedVersion(), srv.NegotiatedVersion())
	}
	if !cli.peerCap(capDrainHint) || !srv.peerCap(capDrainHint) {
		t.Fatal("v2-v2 pair lost the drain-hint capability")
	}

	cli, srv = w.connect(t, 0, 2, 5001) // legacy dials v2
	if cli.NegotiatedVersion() != 1 || srv.NegotiatedVersion() != 1 {
		t.Fatalf("legacy-v2 settled (%d, %d), want (1, 1)", cli.NegotiatedVersion(), srv.NegotiatedVersion())
	}
	if cli.PeerCaps() != baselineCaps || srv.PeerCaps() != baselineCaps {
		t.Fatalf("legacy-v2 caps (%#x, %#x), want baseline", cli.PeerCaps(), srv.PeerCaps())
	}

	cli, srv = w.connect(t, 1, 0, 5002) // v2 dials legacy
	if cli.NegotiatedVersion() != 1 || srv.NegotiatedVersion() != 1 {
		t.Fatalf("v2-legacy settled (%d, %d), want (1, 1)", cli.NegotiatedVersion(), srv.NegotiatedVersion())
	}
	if cli.peerCap(capDrainHint) || srv.peerCap(capDrainHint) {
		t.Fatal("legacy peer granted the v2-only drain hint")
	}
}

// --- drain -------------------------------------------------------------------

// TestDrainIdleNode: an idle node drains straight to Drained with an empty
// handoff, and a second Drain is rejected. (What a dial into the draining
// node hears is a TestEstablishmentConformance row.)
func TestDrainIdleNode(t *testing.T) {
	w := newWorld(t, 2, nil)
	var blob []byte
	if err := w.ctxs[1].Drain(func(b []byte) { blob = b }); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if w.ctxs[1].DrainPhase() != DrainDrained {
		t.Fatalf("phase %v, want drained", w.ctxs[1].DrainPhase())
	}
	h, err := decodeHandoff(blob)
	if err != nil || len(h.Chans) != 0 {
		t.Fatalf("idle-node handoff: %+v err=%v", h, err)
	}
	if err := w.ctxs[1].Drain(nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("double Drain = %v, want ErrDraining", err)
	}
}

// TestDrainWaitsForInflight: a request in flight when Drain starts runs
// to completion — the waiter is served, not failed — before the node
// moves to Drained.
func TestDrainWaitsForInflight(t *testing.T) {
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	srv.OnMessage(func(m *Msg) {
		w.eng.AfterBg(3*sim.Millisecond, func() { m.Reply([]byte("late"), 0) })
	})
	var gotResp bool
	var respErr error
	if err := cli.SendMsg([]byte("req"), 0, func(m *Msg, err error) {
		gotResp, respErr = err == nil, err
	}); err != nil {
		t.Fatal(err)
	}
	var drainedAt sim.Time
	w.eng.AfterBg(100*sim.Microsecond, func() {
		if err := w.ctxs[0].Drain(func([]byte) { drainedAt = w.eng.Now() }); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor(30 * sim.Millisecond)
	if !gotResp {
		t.Fatalf("in-flight request failed during graceful drain: %v", respErr)
	}
	if drainedAt == 0 {
		t.Fatal("drain never completed")
	}
	if drainedAt < sim.Time(3*sim.Millisecond) {
		t.Fatalf("drained at %v, before the in-flight response landed", drainedAt)
	}
}

// TestDrainForcedFailsWaiters: when the deadline expires with a response
// still owed, the waiter fails loudly with ErrDraining and the request
// stays replayable in the handoff tail. (Handoff serialization needs the
// recovery plane — without it there is nothing a restarted instance could
// re-establish through, so the blob only covers recovery-indexed
// channels.)
func TestDrainForcedFailsWaiters(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) { cfg.DrainDeadline = 2 * sim.Millisecond })
	cli, srv := w.connect(t, 0, 1, 5000)
	srv.OnMessage(func(*Msg) {}) // never replies
	var werr error
	if err := cli.SendMsg([]byte("req"), 0, func(_ *Msg, err error) { werr = err }); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	w.eng.AfterBg(200*sim.Microsecond, func() {
		if err := w.ctxs[0].Drain(func(b []byte) { blob = b }); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor(30 * sim.Millisecond)
	if !errors.Is(werr, ErrDraining) {
		t.Fatalf("forced-drain waiter got %v, want ErrDraining", werr)
	}
	h, err := decodeHandoff(blob)
	if err != nil || len(h.Chans) != 1 {
		t.Fatalf("handoff: %+v err=%v", h, err)
	}
	if h.Chans[0].Peer != 1 || h.MsgSeq == 0 {
		t.Fatalf("handoff record: %+v msgSeq=%d", h.Chans[0], h.MsgSeq)
	}
}

// TestForcedDrainSealsAtDeadline: a drain that cannot quiesce seals its blob
// at DrainDeadline exactly, not a quiesce poll later — the poll's period has a
// 10 µs floor, above this 5 µs deadline. A 1 MiB request is in flight.
func TestForcedDrainSealsAtDeadline(t *testing.T) {
	const deadline = 5 * sim.Microsecond
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) { cfg.DrainDeadline = deadline })
	cli, _ := w.connect(t, 0, 1, 5000)
	var werr error
	if err := cli.SendMsg(make([]byte, 1<<20), 0, func(_ *Msg, err error) { werr = err }); err != nil {
		t.Fatal(err)
	}
	start, sealed := w.eng.Now(), sim.Time(-1)
	if err := w.ctxs[0].Drain(func([]byte) { sealed = w.eng.Now() }); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(sim.Millisecond)
	if !errors.Is(werr, ErrDraining) {
		t.Fatalf("the waiter got %v, want ErrDraining: the drain was not forced", werr)
	}
	if want := start.Add(deadline); sealed != want {
		t.Fatalf("sealed at %v, want the deadline %v (Drain at %v)", sealed, want, start)
	}
}

// TestDrainFlushesShedParkedAttaches: lazy mux channels parked in the
// admission FIFO by their tenant's shed episode must not deadlock a drain —
// the flush fails their callbacks with ErrDraining instead of serving or
// stranding them.
func TestDrainFlushesShedParkedAttaches(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.QPsPerPeer = 2
		cfg.Tenants = []TenantConfig{{Name: "a"}}
	})
	w.ctxs[1].OnChannel(func(*Channel) {})
	if err := w.ctxs[1].Listen(6000); err != nil {
		t.Fatal(err)
	}
	c0 := w.ctxs[0]
	c0.Tenant("a").shedUntil = sim.Time(1 << 62) // shed gate: every attach parks in the FIFO
	var errs []error
	for k := 0; k < 3; k++ {
		ch, err := c0.ChannelTo(fabric.NodeID(1), 6000, WithTenant("a"))
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.SendMsg([]byte("x"), 0, func(_ *Msg, err error) {
			errs = append(errs, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c0.attachQ.Len(); got != 3 {
		t.Fatalf("parked %d attaches, want 3", got)
	}
	if err := c0.Drain(func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if c0.attachQ.Len() != 0 {
		t.Fatalf("admission FIFO not flushed: %d left", c0.attachQ.Len())
	}
	if len(errs) != 3 {
		t.Fatalf("%d of 3 parked sends resolved", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("parked send resolved with %v, want ErrDraining", err)
		}
	}
	if c0.DrainPhase() != DrainDrained {
		t.Fatalf("phase %v, want drained", c0.DrainPhase())
	}
	if c0.Stats.DrainRefusals < 3 {
		t.Fatalf("refusals %d, want ≥3", c0.Stats.DrainRefusals)
	}
}

// --- restart -----------------------------------------------------------------

// restartCtx replaces one node's context in place, the white-box analogue
// of cluster.Restart: the NIC, CM endpoint and TCP stack survive, the
// middleware instance is rebuilt (possibly at a mutated configuration).
func restartCtx(w *testWorld, i int, mutate func(*Config)) *Context {
	old := w.ctxs[i]
	cfg := old.Config()
	if mutate != nil {
		mutate(&cfg)
	}
	old.Shutdown()
	vc := verbs.Open(w.nics[i])
	ctx := trackEnds(NewContext(Options{
		Verbs: vc, CM: old.cm, Host: old.host, Config: cfg,
		TCP: old.tcp, MockPort: old.mockPort, RecoverPort: old.recoverPort,
		Seed: uint64(i + 101),
	}))
	delete(ends, old) // the old instance leaves the world, and its census with it
	w.ctxs[i] = ctx
	return ctx
}

// TestShutdownReleasesEnds: a connection end kept past its instance's
// Shutdown reads QPN 0 — its QP was destroyed, and the NIC may issue the
// number again — and holds no receive pool, whose memory went with the cache's
// regions; the instance's QPN table is empty (checkStructure, at the end too).
func TestShutdownReleasesEnds(t *testing.T) {
	w := newWorld(t, 2, nil)
	_, srv := w.connect(t, 0, 1, 5000)
	if srv.QPN() == 0 || srv.lk.pool == nil {
		t.Fatal("setup: the server end has no QP or receive pool")
	}
	w.ctxs[1].Shutdown()
	if q := srv.QPN(); q != 0 || srv.lk.pool != nil {
		t.Fatalf("a handle kept past Shutdown reads QPN %d and holds a pool: %v; want 0 and none", q, srv.lk.pool != nil)
	}
	checkStructure(t, w.ctxs[1])
}

// TestRollingRestartExactlyOnce: drain the server under a live request
// stream, restart it at a bumped protocol version, rehydrate the handoff
// blob, and let the recovery plane re-establish — zero lost, zero
// duplicated operations, and the rehydrated channel keeps its v1 verdict
// with the legacy peer.
func TestRollingRestartExactlyOnce(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.DrainDeadline = 4 * sim.Millisecond
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 150*sim.Millisecond)

	var newSrv *Context
	var rehydrated *Channel
	w.eng.AfterBg(20*sim.Millisecond, func() {
		oldSeq := w.ctxs[1].msgSeq
		err := w.ctxs[1].Drain(func(blob []byte) {
			h, derr := decodeHandoff(blob)
			if derr != nil {
				t.Errorf("handoff decode: %v", derr)
				return
			}
			if len(h.Chans) != 1 || h.Chans[0].Peer != 0 {
				t.Errorf("handoff: %+v", h.Chans)
			}
			newSrv = restartCtx(w, 1, func(cfg *Config) { cfg.ProtoVerMax = 2 })
			newSrv.OnChannel(func(ch *Channel) {
				rehydrated = ch
				ch.OnMessage(func(m *Msg) {
					id := binary.LittleEndian.Uint64(m.Data)
					s.recvd[id]++
					m.Reply(m.Data[:8], 0)
				})
			})
			if rerr := newSrv.Rehydrate(blob); rerr != nil {
				t.Errorf("rehydrate: %v", rerr)
			}
			if newSrv.msgSeq < oldSeq {
				t.Errorf("MsgID floor regressed: %d < %d", newSrv.msgSeq, oldSeq)
			}
		})
		if err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor(400 * sim.Millisecond)

	if newSrv == nil {
		t.Fatal("restart never happened")
	}
	if newSrv.Stats.Rehydrated != 1 {
		t.Fatalf("Rehydrated = %d, want 1", newSrv.Stats.Rehydrated)
	}
	if rehydrated == nil || rehydrated.Closed() {
		t.Fatal("rehydrated channel dead")
	}
	if cli.Health() != HealthHealthy || cli.Mocked() {
		t.Fatalf("client ended health=%v mocked=%v, want healthy over RDMA", cli.Health(), cli.Mocked())
	}
	if rehydrated.Health() != HealthHealthy {
		t.Fatalf("rehydrated channel ended %v, want healthy", rehydrated.Health())
	}
	// The restarted build is v2-capable, but this channel was negotiated
	// with a legacy peer: the serialized verdict pins it to v1.
	if rehydrated.NegotiatedVersion() != hdrVersion {
		t.Fatalf("rehydrated channel speaks v%d, want v%d", rehydrated.NegotiatedVersion(), hdrVersion)
	}
	if w.ctxs[0].Stats.Degraded == 0 {
		t.Fatal("client never noticed the restart — test is vacuous")
	}
	s.check(t)
}

// TestHandoffAfterManyRecoveries: a link that adopted 70 replacement QPs
// still drains to a blob that decodes, and the restarted instance brings the
// channel back with every request delivered exactly once. The link's
// identity stays its establishment QPN however many QPs it has owned.
func TestHandoffAfterManyRecoveries(t *testing.T) {
	const fails = 70
	gap := 20 * sim.Millisecond
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) { cfg.DrainDeadline = 5 * sim.Microsecond })
	cli, srv := w.connect(t, 0, 1, 5000)
	qpn0 := cli.lk.qpn0
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, fails*gap)
	for k := 1; k <= fails; k++ {
		w.eng.AfterBg(sim.Duration(k)*gap, func() { cli.lk.fail(ErrPeerDead) })
	}

	var rehydrated *Channel
	w.eng.AfterBg((fails+1)*gap, func() {
		l := cli.lk
		if got := w.ctxs[0].Stats.Recoveries; got != fails {
			t.Errorf("recovered %d times, want %d", got, fails)
		}
		if l.qpn0 != qpn0 {
			t.Errorf("identity %d, want the establishment QPN %d", l.qpn0, qpn0)
		}
		want := handoffChan{Peer: 1, QPN0: l.qpn0, PeerQPN: l.peerQPN, PeerQPN0: l.peerQPN0}
		// One rendezvous request in flight when the drain starts: the deadline
		// freezes it in the tail, and the restarted instance replays it.
		big := make([]byte, 1<<20)
		binary.LittleEndian.PutUint64(big, s.sent)
		s.sent++
		if err := cli.SendMsg(big, 0, func(*Msg, error) {}); err != nil {
			t.Fatal(err)
		}
		err := w.ctxs[0].Drain(func(blob []byte) {
			h, err := decodeHandoff(blob)
			if err != nil {
				t.Fatalf("handoff: %v", err)
			}
			if len(h.Chans) != 1 {
				t.Fatalf("handoff of %d channels, want 1", len(h.Chans))
			}
			r := h.Chans[0]
			if len(r.Tail) != 1 || r.Tail[0].MsgID != w.ctxs[0].msgSeq {
				t.Fatalf("tail %+v, want the request in flight: the test is vacuous", r.Tail)
			}
			r.Tail, r.NegVer, r.Caps, r.TxFloor, r.RxFloor = nil, 0, 0, 0, 0
			if !reflect.DeepEqual(r, want) {
				t.Errorf("handoff identity %+v, want %+v", r, want)
			}
			newCli := restartCtx(w, 0, nil)
			newCli.OnChannel(func(ch *Channel) { rehydrated = ch })
			if err := newCli.Rehydrate(blob); err != nil {
				t.Fatalf("rehydrate: %v", err)
			}
		})
		if err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor((fails+1)*gap + 300*sim.Millisecond)

	if rehydrated == nil || rehydrated.Health() != HealthHealthy {
		t.Fatal("the channel did not come back healthy")
	}
	if dups, lost := s.tally(); dups != 0 || lost != 0 || s.sendErrs != 0 {
		t.Errorf("of %d sent: %d duplicated, %d lost, %d rejected", s.sent, dups, lost, s.sendErrs)
	}
}

// TestRestartDuringRendezvousMemClean: the sender restarts while a large
// rendezvous transfer is mid-pull. The transfer must land exactly once
// (replayed from the handoff tail, deduped by the window), and no staged
// or receive memory may leak on any instance — old, new, or peer.
func TestRestartDuringRendezvousMemClean(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.DrainDeadline = 100 * sim.Microsecond
	})
	cli, srv := w.connect(t, 0, 1, 5010)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	deliveries := 0
	srv.OnMessage(func(m *Msg) {
		if !bytes.Equal(m.Data, payload) {
			t.Error("rendezvous payload corrupted across restart")
		}
		deliveries++
		m.Reply([]byte("ok"), 0)
	})
	var werr error
	if err := cli.SendMsg(payload, 0, func(_ *Msg, err error) { werr = err }); err != nil {
		t.Fatal(err)
	}

	var newCli *Context
	var newCh *Channel
	w.eng.AfterBg(30*sim.Microsecond, func() {
		err := w.ctxs[0].Drain(func(blob []byte) {
			old := w.ctxs[0]
			newCli = restartCtx(w, 0, nil)
			if old.Mem.InUseBytes != 0 {
				t.Errorf("old context leaks %dB after Shutdown", old.Mem.InUseBytes)
			}
			newCli.OnChannel(func(ch *Channel) { newCh = ch })
			if rerr := newCli.Rehydrate(blob); rerr != nil {
				t.Errorf("rehydrate: %v", rerr)
			}
		})
		if err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor(300 * sim.Millisecond)

	if deliveries != 1 {
		t.Fatalf("rendezvous delivered %d times, want exactly once", deliveries)
	}
	// The waiter was failed at the forced deadline; the operation itself
	// survived in the tail — that is the drain contract.
	if werr != nil && !errors.Is(werr, ErrDraining) {
		t.Fatalf("waiter failed with %v, want ErrDraining (or served)", werr)
	}
	if w.ctxs[1].Stats.Degraded == 0 {
		t.Fatal("server never saw the restart — transfer completed before drain, test is vacuous")
	}
	if newCh == nil {
		t.Fatal("no rehydrated channel")
	}
	newCh.Close()
	// The server closes nothing: its link, degraded when the peer's QP went
	// away, holds its receive pool until the grace runs out and it gives the
	// broken QP up — the pool must come back then, with no help from the app.
	w.eng.RunFor(w.ctxs[1].recoverGrace() + 20*sim.Millisecond)
	if newCli.Mem.InUseBytes != 0 {
		t.Errorf("restarted client leaks %dB", newCli.Mem.InUseBytes)
	}
	if w.ctxs[1].Mem.InUseBytes != 0 {
		t.Errorf("server leaks %dB", w.ctxs[1].Mem.InUseBytes)
	}
}

// --- frozen handoff corpus ---------------------------------------------------

var update = flag.Bool("update", false, "rewrite the corpora this tree writes (testdata/handoff-qpn0.json, testdata/wire) from it")

// TestHandoffCorpusGenerate writes testdata/handoff-qpn0.json under -update:
// the blob a drain freezes for one channel that holds everything a blob
// carries — a tenant label, a peer-granted window, and a carried and a
// size-only message in the replay tail. testdata/handoff.json is the same
// world frozen by an older build, which also named the link's newest QPN; it
// is never rewritten.
func TestHandoffCorpusGenerate(t *testing.T) {
	if !*update {
		t.Skip("rewrites testdata/handoff-qpn0.json only with -update")
	}
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.DrainDeadline = 5 * sim.Microsecond
		cfg.Tenants = []TenantConfig{{Name: "tenant-a"}}
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	if err := cli.BindTenant("tenant-a"); err != nil {
		t.Fatal(err)
	}
	exposeGranted(t, w, cli, srv, 4096)
	// On a degraded link both sends wait in the queue, and the drain's
	// deadline freezes them there.
	cli.lk.fail(ErrPeerDead)
	for _, data := range [][]byte{[]byte("hello"), nil} {
		if err := cli.SendMsg(data, 64<<10, func(*Msg, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	var blob []byte
	if err := w.ctxs[0].Drain(func(b []byte) { blob = b }); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(sim.Millisecond)
	if err := os.WriteFile(filepath.Join("testdata", "handoff-qpn0.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffCorpus holds every frozen blob to three things: it decodes, it
// re-encodes byte for byte but for the "QPN" keys a blob no longer carries,
// and a fresh context rehydrates what it says.
func TestHandoffCorpus(t *testing.T) {
	retired := regexp.MustCompile(`"QPN":[0-9]+,`)
	tail := []handoffMsg{ // MsgIDs are not compared
		{Kind: kindReq, Size: 5, Data: []byte("hello")},
		{Kind: kindReq, Size: 64 << 10},
	}
	for _, tc := range []struct {
		file   string
		peer   fabric.NodeID
		tenant string
		wins   int
		tail   []handoffMsg
	}{
		{"handoff.json", 1, "tenant-a", 1, tail},
		{"handoff-qpn0.json", 1, "tenant-a", 1, tail},
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		h, err := decodeHandoff(blob)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if again, want := marshalHandoff(t, *h), retired.ReplaceAll(blob, nil); !bytes.Equal(again, want) {
			t.Errorf("%s re-encodes differently:\n got %s\nwant %s", tc.file, again, want)
		}
		w := newRecoverWorld(t, 2, func(i int, cfg *Config) { cfg.Tenants = []TenantConfig{{Name: tc.tenant}} })
		var ch *Channel
		w.ctxs[0].OnChannel(func(c *Channel) { ch = c })
		if err := w.ctxs[0].Rehydrate(blob); err != nil {
			t.Fatalf("%s: rehydrate: %v", tc.file, err)
		}
		if ch == nil || ch.Peer != tc.peer || ch.TenantOf() != w.ctxs[0].Tenant(tc.tenant) || len(ch.remoteWins) != tc.wins {
			t.Fatalf("%s: rehydrated %+v", tc.file, ch)
		}
		if w.ctxs[0].msgSeq < h.MsgSeq || ch.win.acked != h.Chans[0].TxFloor || ch.win.rta != h.Chans[0].RxFloor {
			t.Errorf("%s: MsgID floor %d, window floors (%d, %d); the blob says %d, (%d, %d)", tc.file,
				w.ctxs[0].msgSeq, ch.win.acked, ch.win.rta, h.MsgSeq, h.Chans[0].TxFloor, h.Chans[0].RxFloor)
		}
		rec := ch.sendQ.Head()
		for i, m := range tc.tail {
			if rec == nil || rec.mkind != m.Kind || rec.size != int(m.Size) || rec.hasData != (m.Data != nil) || !bytes.Equal(rec.payload(), m.Data) {
				t.Fatalf("%s: tail message %d restored as %+v, want %+v", tc.file, i, rec, m)
			}
			rec = rec.next
		}
		if rec != nil {
			t.Errorf("%s: more than %d messages restored", tc.file, len(tc.tail))
		}
	}
}
