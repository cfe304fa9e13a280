package xrdma

import (
	"encoding/binary"
	"slices"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// retryKnobs compresses the request-retry clocks for the drills below.
func retryKnobs(retries int) func(int, *Config) {
	return func(_ int, cfg *Config) {
		cfg.MockEnabled = false
		cfg.RequestTimeout = 2 * sim.Millisecond
		cfg.RequestRetries = retries
		cfg.RetryBackoff = 0
		cfg.StatsInterval = 500 * sim.Microsecond
	}
}

// TestFlowLabelSteersECMP: rotating a QP's flow label must change the
// effective flow key so the ToR's deterministic ECMP hash can pick a
// different uplink — and the connection must keep working across the
// rotation (go-back-N absorbs any transient reorder).
func TestFlowLabelSteersECMP(t *testing.T) {
	w := newWorld(t, 8, nil)
	cli, srv := w.connect(t, 0, 4, 5600) // cross-ToR on SmallClos: 2 uplinks
	echoServer(srv)

	base := cli.FlowHash()
	baseIdx := fabric.ECMPIndex(base, 2)
	// Find a label that steers onto the other uplink; with 2 candidates a
	// handful of draws must suffice.
	var steered uint64
	for label := uint64(1); label < 32; label++ {
		if err := w.ctxs[0].vctx.ModifyFlowLabel(cli.QPN(), label); err != nil {
			t.Fatal(err)
		}
		if cli.FlowHash() == base {
			t.Fatalf("label %d left the flow hash unchanged", label)
		}
		if fabric.ECMPIndex(cli.FlowHash(), 2) != baseIdx {
			steered = label
			break
		}
	}
	if steered == 0 {
		t.Fatal("no label in [1,32) steered the flow onto the other uplink")
	}

	// Traffic still flows on the rotated path.
	var resp bool
	cli.SendMsg([]byte("after rotation"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("post-rotation response: %v", err)
		}
		resp = true
	})
	w.eng.Run()
	if !resp {
		t.Fatal("no response after flow-label rotation")
	}

	// Label 0 restores the canonical path.
	if err := w.ctxs[0].vctx.ModifyFlowLabel(cli.QPN(), 0); err != nil {
		t.Fatal(err)
	}
	if cli.FlowHash() != base {
		t.Fatal("label 0 did not restore the canonical flow key")
	}
}

// TestRequestRetryExactlyOnce: a black-holed request (the server never
// replies) is retried exactly RequestRetries times, the server sees the
// request exactly once (MsgID dedup swallows the duplicates), and the
// caller finally gets ErrTimeout.
func TestRequestRetryExactlyOnce(t *testing.T) {
	const budget = 3
	w := newWorld(t, 2, retryKnobs(budget))
	cli, srv := w.connect(t, 0, 1, 5601)

	delivered := 0
	srv.OnMessage(func(m *Msg) {
		delivered++ // never reply: the request is black-holed
	})

	var gotErr error
	calls := 0
	cli.SendMsg([]byte("doomed"), 0, func(m *Msg, err error) {
		calls++
		gotErr = err
	})
	w.eng.RunFor(50 * sim.Millisecond)

	if delivered != 1 {
		t.Errorf("server handler ran %d times, want exactly 1 (dedup)", delivered)
	}
	if cli.Counters.ReqRetries != budget {
		t.Errorf("client retried %d times, want %d", cli.Counters.ReqRetries, budget)
	}
	if calls != 1 || gotErr != ErrTimeout {
		t.Errorf("callback: %d calls, err=%v; want 1 call with ErrTimeout", calls, gotErr)
	}
	if w.ctxs[0].Stats.ReqTimeouts != 1 {
		t.Errorf("ReqTimeouts=%d, want 1", w.ctxs[0].Stats.ReqTimeouts)
	}
}

// TestRequestRetryCachedResend: when the retry races a response that was
// merely slow (not lost), the receiver answers the duplicate from its
// response cache without re-running the application handler, and the
// client consumes exactly one response.
func TestRequestRetryCachedResend(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		retryKnobs(2)(i, cfg)
		cfg.RetryBackoff = 4 * sim.Millisecond // retry lands after the slow reply
	})
	cli, srv := w.connect(t, 0, 1, 5602)

	handled := 0
	srv.OnMessage(func(m *Msg) {
		handled++
		data := m.Retain()
		mm := m
		w.eng.After(5*sim.Millisecond, func() { mm.Reply(data, 0) })
	})

	resps, errs := 0, 0
	cli.SendMsg([]byte("slowpoke"), 0, func(m *Msg, err error) {
		if err != nil {
			errs++
			return
		}
		resps++
	})
	w.eng.RunFor(50 * sim.Millisecond)

	if handled != 1 {
		t.Errorf("server handler ran %d times, want 1 — duplicate must be served from cache", handled)
	}
	if resps != 1 || errs != 0 {
		t.Errorf("client saw resps=%d errs=%d, want exactly one response", resps, errs)
	}
	if cli.Counters.ReqRetries < 1 {
		t.Errorf("no retry fired — test not exercising the race")
	}
	// Both wire responses arrived (original + cached resend); only the
	// first satisfied the pending request.
	if cli.Counters.RespsRecv != 1 {
		t.Errorf("RespsRecv=%d, want 1 (duplicate response must be dropped)", cli.Counters.RespsRecv)
	}
}

// TestRespCacheEvictsOldestFirst: the receiver's idempotency cache holds the
// last respCacheCap request MsgIDs. After respCacheCap+k distinct requests the
// first k are gone, evicted in issue order; a duplicate inside the window is
// answered from the cache without re-running the handler, and a duplicate of
// an evicted MsgID runs it again (and evicts the oldest survivor).
func TestRespCacheEvictsOldestFirst(t *testing.T) {
	const k = 3
	w := newWorld(t, 2, func(i int, cfg *Config) {
		retryKnobs(1)(i, cfg)
		cfg.RequestTimeout = 100 * sim.Millisecond // no retry fires: every duplicate below is injected
	})
	cli, srv := w.connect(t, 0, 1, 5604)

	var ids []uint64 // delivery order, which the seq window makes issue order
	handled := map[uint64]int{}
	srv.OnMessage(func(m *Msg) {
		if handled[m.MsgID] == 0 {
			ids = append(ids, m.MsgID)
		}
		handled[m.MsgID]++
		m.Reply(nil, 8)
	})
	resps := 0
	for i := 0; i < respCacheCap+k; i++ {
		cli.SendMsg(nil, 8, func(_ *Msg, err error) {
			if err == nil {
				resps++
			}
		})
	}
	w.eng.RunFor(20 * sim.Millisecond)
	if resps != respCacheCap+k || len(ids) != respCacheCap+k {
		t.Fatalf("%d responses, %d distinct requests handled; want %d of each", resps, len(ids), respCacheCap+k)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("MsgIDs delivered out of issue order at %d: %d after %d", i, ids[i], ids[i-1])
		}
	}
	checkCache := func(want []uint64) {
		t.Helper()
		if got := srv.respOrder.Items(); !slices.Equal(got, want) {
			t.Fatalf("eviction order holds %d IDs %v..., want %d IDs %v...", len(got), got[:k], len(want), want[:k])
		}
		if len(srv.respCache) != len(want) {
			t.Fatalf("cache holds %d entries, want %d", len(srv.respCache), len(want))
		}
		for _, id := range want {
			if _, ok := srv.respCache[id]; !ok {
				t.Fatalf("MsgID %d missing from the cache", id)
			}
		}
	}
	checkCache(ids[k:])
	for _, id := range ids[:k] {
		if _, ok := srv.respCache[id]; ok {
			t.Fatalf("MsgID %d, among the first %d, was not evicted", id, k)
		}
	}

	// A duplicate of a cached request: answered from the cache.
	sent := srv.Counters.MsgsSent
	srv.deliver(&Msg{Ch: srv, IsReq: true, MsgID: ids[k], Len: 8})
	w.eng.RunFor(sim.Millisecond)
	if handled[ids[k]] != 1 || srv.Counters.MsgsSent != sent+1 {
		t.Fatalf("cached duplicate: handler ran %d times, %d responses re-sent; want 1 and 1",
			handled[ids[k]], srv.Counters.MsgsSent-sent)
	}
	checkCache(ids[k:])

	// A duplicate of an evicted request: the handler runs again, and the
	// re-remembered MsgID evicts the oldest survivor.
	srv.deliver(&Msg{Ch: srv, IsReq: true, MsgID: ids[0], Len: 8})
	w.eng.RunFor(sim.Millisecond)
	if handled[ids[0]] != 2 {
		t.Fatalf("evicted duplicate: handler ran %d times, want 2", handled[ids[0]])
	}
	checkCache(append(slices.Clone(ids[k+1:]), ids[0]))
}

// TestRetryBudgetBoundsAmplification: the token bucket caps total
// retries across the channel no matter how many requests time out at
// once — the defining property of a gRPC-style retry budget.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	w := newWorld(t, 2, retryKnobs(3))
	cli, srv := w.connect(t, 0, 1, 5603)

	blackhole := false
	srv.OnMessage(func(m *Msg) {
		if !blackhole {
			m.Reply(m.Retain(), m.Len)
		}
	})

	// A few clean exchanges first (credits cannot push tokens past the cap).
	okResps := 0
	for i := 0; i < 5; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err == nil {
				okResps++
			}
		})
	}
	w.eng.RunFor(10 * sim.Millisecond)
	if okResps != 5 {
		t.Fatalf("warmup: %d/5 responses", okResps)
	}

	// Now 20 requests all black-holed: per-request budget would allow 60
	// retries, the channel bucket must stop at its cap.
	blackhole = true
	timeouts := 0
	for i := 0; i < 20; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(100+i))
		cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err == ErrTimeout {
				timeouts++
			}
		})
	}
	w.eng.RunFor(100 * sim.Millisecond)

	if timeouts != 20 {
		t.Errorf("%d/20 requests timed out", timeouts)
	}
	if got := cli.Counters.ReqRetries; got > int64(retryBudgetCap) {
		t.Errorf("channel issued %d retries, budget cap is %v", got, retryBudgetCap)
	}
	if cli.Counters.ReqRetries == 0 {
		t.Errorf("no retries at all — budget not exercised")
	}
}

// TestRetryTokenOrderDeterministic: when more requests expire at once
// than the token bucket can fund, the winners must be the oldest
// requests, re-issued in ascending MsgID order — never whichever entries
// a randomized map walk yields first. Retry order is part of the
// deterministic grayhaul digest.
func TestRetryTokenOrderDeterministic(t *testing.T) {
	w := newWorld(t, 2, retryKnobs(3))
	cli, srv := w.connect(t, 0, 1, 5605)
	srv.OnMessage(func(m *Msg) {}) // black hole: every request expires

	// All 20 requests expire in the same scan; the bucket funds exactly
	// retryBudgetCap of them.
	const n = 20
	for i := 0; i < n; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		cli.SendMsg(buf, 0, func(m *Msg, err error) {})
	}
	w.eng.RunFor(50 * sim.Millisecond)

	var ids []uint64
	dump := w.ctxs[0].tel.Flight.ForceDump(w.eng.Now(), "retry audit")
	for _, e := range dump.Events {
		if e.Cat == telemetry.CatReqRetry {
			ids = append(ids, uint64(e.A))
		}
	}
	if len(ids) != int(retryBudgetCap) {
		t.Fatalf("%d retries recorded, want %v (one full bucket)", len(ids), retryBudgetCap)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("retries out of issue order: %v", ids)
		}
	}
	// The 20 requests got consecutive MsgIDs, so the oldest-first winners
	// are a consecutive run.
	if ids[len(ids)-1]-ids[0] != uint64(len(ids)-1) {
		t.Errorf("retry tokens not spent on the oldest requests: %v", ids)
	}
}

// TestRetryPayloadOwned: with retries enabled SendMsg must copy the
// payload — the caller is free to scribble on its buffer the moment
// SendMsg returns, and a later retry must still transmit the original
// bytes.
func TestRetryPayloadOwned(t *testing.T) {
	w := newWorld(t, 2, retryKnobs(1))
	cli, srv := w.connect(t, 0, 1, 5606)
	echoServer(srv)

	buf := []byte("original-bytes")
	if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {}); err != nil {
		t.Fatal(err)
	}
	if len(cli.pending) != 1 {
		t.Fatalf("pending=%d, want 1", len(cli.pending))
	}
	for _, rs := range cli.pending {
		if len(rs.payload()) == 0 || &rs.payload()[0] == &buf[0] {
			t.Fatal("retry state aliases the caller's buffer")
		}
		copy(buf, "clobbered!!!!!")
		if string(rs.payload()) != "original-bytes" {
			t.Fatalf("retained payload mutated with the caller's buffer: %q", rs.payload())
		}
	}
	w.eng.Run()
}

// TestPathDoctorInertWithoutFaults: on a healthy fabric the doctor must
// be a pure observer — verdict clean, no rotations, no RNG draws that
// could perturb the golden runs.
func TestPathDoctorInertWithoutFaults(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) {
		cfg.StatsInterval = 500 * sim.Microsecond
	})
	cli, srv := w.connect(t, 0, 1, 5604)
	echoServer(srv)
	for i := 0; i < 50; i++ {
		cli.SendMsg([]byte("steady"), 0, func(m *Msg, err error) {})
	}
	w.eng.RunFor(20 * sim.Millisecond)
	if v := cli.PathVerdict(); v != PathClean {
		t.Errorf("verdict %v on a clean fabric", v)
	}
	if cli.Rehashes() != 0 || w.ctxs[0].Stats.PathRehashes != 0 {
		t.Errorf("doctor rotated labels with no fault present")
	}
	if len(cli.PathLog()) != 0 {
		t.Errorf("unexpected verdict transitions: %v", cli.PathLog())
	}
}
