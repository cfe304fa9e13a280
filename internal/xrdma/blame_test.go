package xrdma

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// runBlamedEchoes drives count traced echo round trips over a two-node
// world with every message sampled onto the blame plane and the trace
// timeline enabled, and returns the world plus its telemetry set.
func runBlamedEchoes(t *testing.T, count int) (*testWorld, *telemetry.Set) {
	t.Helper()
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.ReqRspMode = true
		cfg.TraceSampleN = 1
	})
	tel := telemetry.For(w.eng)
	tel.Trace.Enable(1 << 12)
	cli, srv := w.connect(t, 0, 1, 5600)
	echoServer(srv)
	got := 0
	for i := 0; i < count; i++ {
		err := cli.SendMsg([]byte("where did my p99 go?"), 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("echo %d: %v", i, err)
			}
			got++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.eng.Run()
	if got != count {
		t.Fatalf("completed %d/%d echoes", got, count)
	}
	if n := tel.Blame.Count(); n != int64(count) {
		t.Fatalf("blame plane observed %d messages, want %d", n, count)
	}
	return w, tel
}

// TestBlameSpansNestInChromeTrace exports the timeline as Chrome
// trace_event JSON and checks the blame decomposition renders as spans:
// one "blame.msg" parent per traced message, with every stage span
// carrying the same message id tiled strictly inside its parent.
func TestBlameSpansNestInChromeTrace(t *testing.T) {
	const msgs = 8
	_, tel := runBlamedEchoes(t, msgs)

	var buf bytes.Buffer
	if err := tel.Trace.WriteJSON(&buf, "blame-test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v\n%s", err, buf.String())
	}

	isStage := map[string]bool{}
	for s := telemetry.Stage(0); s < telemetry.StageCount; s++ {
		isStage[s.String()] = true
	}
	// Parent spans: one complete ("X") event per traced message, keyed
	// by the message id in args.v.
	type span struct{ ts, end float64 }
	parents := map[int64]span{}
	for _, e := range doc.TraceEvents {
		if e.Name != "blame.msg" {
			continue
		}
		if e.Ph != "X" || e.Pid == 0 {
			t.Fatalf("blame.msg must be a complete event with a pid: %+v", e)
		}
		parents[int64(e.Args["v"].(float64))] = span{e.Ts, e.Ts + e.Dur}
	}
	if len(parents) != msgs {
		t.Fatalf("got %d blame.msg parent spans, want %d", len(parents), msgs)
	}
	// Child spans: every stage event must reference a parent and lie
	// inside it (EmitSpans clamps the tiling to the parent's extent).
	// ts/dur are microseconds printed at ns resolution, so allow one
	// rounding quantum of slack.
	const eps = 0.002
	children := 0
	for _, e := range doc.TraceEvents {
		if !isStage[e.Name] {
			continue
		}
		children++
		p, ok := parents[int64(e.Args["v"].(float64))]
		if !ok {
			t.Fatalf("stage span %q has no blame.msg parent: %+v", e.Name, e)
		}
		if e.Ts < p.ts-eps || e.Ts+e.Dur > p.end+eps {
			t.Fatalf("stage span %q [%f,%f] escapes parent [%f,%f]",
				e.Name, e.Ts, e.Ts+e.Dur, p.ts, p.end)
		}
	}
	if children < msgs {
		t.Fatalf("only %d stage spans for %d traced messages", children, msgs)
	}
}

// TestFlightDumpCarriesBlameSummary freezes the flight recorder after a
// traced workload and checks the dump captured the blame verdict of that
// instant — the "what was eating my p99 when the invariant tripped" line.
func TestFlightDumpCarriesBlameSummary(t *testing.T) {
	w, tel := runBlamedEchoes(t, 4)
	d := tel.Flight.ForceDump(w.eng.Now(), "blame summary drill")
	if !strings.HasPrefix(d.Blame, "blame: n=4") {
		t.Fatalf("dump blame summary = %q, want frozen verdict for 4 messages", d.Blame)
	}
	if !strings.Contains(d.Blame, "top=") {
		t.Fatalf("dump blame summary names no top stage: %q", d.Blame)
	}
	if !strings.Contains(d.String(), d.Blame) {
		t.Fatalf("rendered dump omits the blame line:\n%s", d.String())
	}
}

// TestBlameOverMockAttributesNoRecovery: a blame-sampled request posted on a
// QP its link gave up at a Mock switch takes no recovery time from that QP,
// whoever recycled it since. The response over the Mock carries no blame
// extension; one that did is reconstructed with no RTO or RNR stage.
func TestBlameOverMockAttributesNoRecovery(t *testing.T) {
	w := newWorld(t, 2, func(i int, cfg *Config) {
		cfg.ReqRspMode, cfg.TraceSampleN, cfg.MockEnabled = true, 1, true
	})
	tel := telemetry.For(w.eng)
	cli, srv := w.connect(t, 0, 1, 5600)
	var held, resp *Msg
	srv.OnMessage(func(m *Msg) { held = m })
	if err := cli.SendMsg([]byte("blamed"), 0, func(m *Msg, err error) {
		if err != nil {
			t.Errorf("response: %v", err)
		}
		resp = m
	}); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if held == nil || cli.pending[held.MsgID] == nil || cli.pending[held.MsgID].blame == nil {
		t.Fatal("setup: the request did not arrive blame-sampled")
	}
	b, qp := cli.pending[held.MsgID].blame, cli.lk.qp
	for _, ch := range []*Channel{cli, srv} {
		if err := ch.ForceMock(); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.RunFor(3 * sim.Millisecond)
	// Whoever holds the request's QP now runs up recovery time on it.
	qp.Counters.RTORecoveryNs += int64(sim.Millisecond)
	qp.Counters.RNRRecoveryNs += int64(sim.Millisecond)
	if err := held.Reply([]byte("answer"), 0); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if resp == nil || !cli.Mocked() || tel.Blame.Count() != 0 {
		t.Fatalf("response %v over the Mock=%v, %d blame records; want it delivered over the Mock with none", resp != nil, cli.Mocked(), tel.Blame.Count())
	}
	w.ctxs[0].onBlame(cli, &Msg{MsgID: held.MsgID, blame: &msgBlame{}}, b)
	if rto, rnr := tel.Blame.StageQuantile(telemetry.StageRTORecovery, 100), tel.Blame.StageQuantile(telemetry.StageRNRRecovery, 100); tel.Blame.Count() != 1 || rto != 0 || rnr != 0 {
		t.Fatalf("%d records, RTO %v, RNR %v: want one, attributing no recovery", tel.Blame.Count(), rto, rnr)
	}
}
