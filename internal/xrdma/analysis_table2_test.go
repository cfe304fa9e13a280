package xrdma

import (
	"strings"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Table II (§VI-A) maps production bug classes to the tracking method
// that catches them. Each test here injects one bug class with the
// analysis framework's own fault-injection surface and asserts that (a)
// the advertised tracking method observes the incident and (b) the
// flight recorder's automatic dump names the culprit event category, so
// an operator reading the dump sees what the paper's Table II promises.

// dumpNaming returns the first flight dump whose rendering mentions the
// given category name, or "" with ok=false.
func dumpNaming(tel *telemetry.Set, category string) (string, bool) {
	for _, d := range tel.Flight.Dumps() {
		if s := d.String(); strings.Contains(s, category) {
			return s, true
		}
	}
	return "", false
}

// Bug class "packet drop": the filter drops every data packet; the
// reliability layer retransmits until the QP errors out, and the dump
// must show the drops that caused the exhaustion.
func TestTable2DropCaughtByFilterAndFlightDump(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.KeepaliveInterval = 0 // isolate the drop path from keepalive
	})
	cli, srv := w.connect(t, 0, 1, 5100)
	echoServer(srv)
	if err := w.ctxs[0].SetFlag("filter_drop_rate", "1"); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	cli.SendMsg([]byte("doomed"), 0, func(_ *Msg, err error) { sendErr = err })
	// RetryLimit x RetransTimeout ≈ 140 ms until retry exhaustion.
	w.eng.RunFor(500 * sim.Millisecond)

	tel := telemetry.For(w.eng)
	if len(tel.Flight.Dumps()) == 0 {
		t.Fatal("retry exhaustion produced no flight dump")
	}
	dump, ok := dumpNaming(tel, "retransmit.exhausted")
	if !ok {
		t.Fatalf("no dump names retransmit.exhausted:\n%s", tel.Flight.Dumps()[0].String())
	}
	if !strings.Contains(dump, "filter.drop") {
		t.Fatalf("dump does not show the filter drops that caused the exhaustion:\n%s", dump)
	}
	if !strings.Contains(dump, "retransmit") {
		t.Fatalf("dump does not show the retransmit storm:\n%s", dump)
	}
	if sendErr == nil && !cli.Closed() && !cli.Mocked() {
		t.Fatal("total drop left the channel nominally healthy")
	}
}

// Bug class "slow operation": req-rsp tracing with an absurdly low
// threshold must flag every message as slow on both ends, and a manual
// dump (the operator pressing the button) must carry slow.op events.
func TestTable2SlowOpCaughtByTracer(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.ReqRspMode = true
		cfg.SlowThreshold = 1 * sim.Nanosecond
	})
	cli, srv := w.connect(t, 0, 1, 5101)
	echoServer(srv)
	for i := 0; i < 5; i++ {
		cli.SendMsg([]byte("slow"), 0, func(*Msg, error) {})
	}
	w.eng.Run()

	if got := w.ctxs[1].Stats.SlowOps; got == 0 {
		t.Fatal("receiver tracer recorded no slow one-way operations")
	}
	if got := w.ctxs[0].Stats.SlowOps; got == 0 {
		t.Fatal("requester tracer recorded no slow RTTs")
	}
	tel := telemetry.For(w.eng)
	tel.Flight.ForceDump(w.eng.Now(), "operator slow-op investigation")
	if dump, ok := dumpNaming(tel, "slow.op"); !ok {
		t.Fatalf("forced dump does not name slow.op:\n%s", dump)
	}
}

// Bug class "connection leak": the peer dies silently; keepalive must
// declare it dead, reclaim the channel's resources (no leak) and leave a
// dump naming keepalive.fail.
func TestTable2LeakCaughtByKeepaliveReclamation(t *testing.T) {
	w := newWorld(t, 2, nil) // default keepalive: 10 ms probe, 50 ms timeout
	cli, srv := w.connect(t, 0, 1, 5102)
	echoServer(srv)
	var closeErr error
	cli.OnClose(func(err error) { closeErr = err })
	w.nics[1].Crash()
	// Probe failure surfaces after the RC retry horizon (≈160 ms).
	w.eng.RunFor(600 * sim.Millisecond)

	if w.ctxs[0].Stats.KeepaliveFails == 0 {
		t.Fatal("keepalive never declared the crashed peer dead")
	}
	if !cli.Closed() {
		t.Fatal("dead channel not reclaimed — connection leak")
	}
	if w.ctxs[0].NumChannels() != 0 {
		t.Fatalf("context still tracks %d channels after reclamation", w.ctxs[0].NumChannels())
	}
	if closeErr != ErrPeerDead {
		t.Fatalf("close reason = %v, want ErrPeerDead", closeErr)
	}
	tel := telemetry.For(w.eng)
	if _, ok := dumpNaming(tel, "keepalive.fail"); !ok {
		t.Fatal("no flight dump names keepalive.fail")
	}
}

// Bug class "RDMA path failure": forcing the mock switch must keep the
// message flow alive over TCP and leave a dump naming mock.switch.
func TestTable2FallbackCaughtByMockSwitch(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.MockEnabled = true
	})
	cli, srv := w.connect(t, 0, 1, 5103)
	echoServer(srv)
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if !cli.Mocked() {
		t.Fatal("channel did not switch to the TCP mock")
	}
	if w.ctxs[0].Stats.MockSwitches == 0 {
		t.Fatal("context counted no mock switches")
	}
	// Delivery must survive the degradation.
	var resp *Msg
	cli.SendMsg([]byte("over tcp"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Fatalf("send over mock: %v", err)
		}
		resp = m
	})
	w.eng.Run()
	if resp == nil {
		t.Fatal("no response over the TCP fallback")
	}
	tel := telemetry.For(w.eng)
	if _, ok := dumpNaming(tel, "mock.switch"); !ok {
		t.Fatal("no flight dump names mock.switch")
	}
}
