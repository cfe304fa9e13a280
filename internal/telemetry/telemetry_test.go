package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xrdma/internal/sim"
)

func TestRingOverwriteOldest(t *testing.T) {
	r := NewRing[int](4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	want := []int{2, 3, 4, 5}
	got := r.Snapshot()
	for i, w := range want {
		if got[i] != w || r.At(i) != w {
			t.Fatalf("element %d = %d/%d, want %d", i, got[i], r.At(i), w)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("len after reset = %d", r.Len())
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {4, 4}, {5, 8}, {4096, 4096}} {
		if got := NewRing[byte](tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRegistryHandlesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var b struct{ Count int64 }
	r.Fields("b", &b) // read when snapshotted, like the gauge
	g := int64(10)
	r.GaugeFunc("a.gauge", func() int64 { return g }) // read when snapshotted
	r.GaugeFunc("c.fn", func() int64 { return 7 })
	h := r.Histogram("d.hist")

	b.Count += 4
	g -= 2
	h.Observe(0)
	h.Observe(5) // bucket [4,8): p50 interpolates to 5, p99 hits the edge 7
	h.Observe(5)

	snap := r.Snapshot()
	want := map[string]int64{
		"a.gauge":      8,
		"b.count":      4,
		"c.fn":         7,
		"d.hist.count": 3,
		"d.hist.sum":   10,
		"d.hist.p50":   5,
		"d.hist.p99":   7,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d: %v", len(snap), len(want), snap)
	}
	for i, e := range snap {
		if i > 0 && snap[i-1].Name >= e.Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, e.Name)
		}
		if want[e.Name] != e.Value {
			t.Errorf("%s = %d, want %d", e.Name, e.Value, want[e.Name])
		}
	}
	if v, ok := r.Value("b.count"); !ok || v != 4 {
		t.Errorf("Value(b.count) = %d,%v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
}

func TestRegistrySameNameReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x")
	b := r.Histogram("x")
	a.Observe(1)
	b.Observe(2)
	if got := a.Count(); got != 2 {
		t.Fatalf("shared histogram = %d samples, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind did not panic")
		}
	}()
	r.GaugeFunc("x", func() int64 { return 0 })
}

// A collected family contributes one entry per member alive when someone
// looks: the entries sort into every exporter beside the registered metrics, a
// member that left is simply absent, and re-registering the family replaces
// its callback (a restarted node's fresh context).
func TestRegistryCollect(t *testing.T) {
	r := NewRegistry()
	m := struct{ Keep int64 }{1}
	r.Fields("m", &m)
	r.GaugeFunc("z", func() int64 { return 9 })
	members := []string{"m.b", "m.a"}
	r.Collect("m", func(emit func(string, int64)) {
		for i, n := range members {
			emit(n, int64(10+i))
		}
	})
	want := []Entry{{"m.a", 11}, {"m.b", 10}, {"m.keep", 1}, {"z", 9}}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	if got := r.Digest(); got != "m.a=11\nm.b=10\nm.keep=1\nz=9\n" {
		t.Fatalf("digest = %q", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	a, keep := strings.Index(expo, "# TYPE m_a gauge\nm_a 11\n"), strings.Index(expo, "# TYPE m_keep gauge\nm_keep 1\n")
	if a < 0 || keep < 0 || a > keep {
		t.Fatalf("collected gauge missing from, or out of order in, the exposition:\n%s", expo)
	}
	if _, ok := r.Value("m.a"); ok {
		t.Fatal("a collected entry resolved by name: it has no slot")
	}

	members = members[:1] // m.a left
	if got := r.Digest(); got != "m.b=10\nm.keep=1\nz=9\n" {
		t.Fatalf("digest after a member left = %q", got)
	}
	r.Collect("m", func(emit func(string, int64)) { emit("m.c", 3) })
	r.Collect("n", func(emit func(string, int64)) { emit("n.x", 4) })
	if got := r.Digest(); got != "m.c=3\nm.keep=1\nn.x=4\nz=9\n" {
		t.Fatalf("digest after the family was re-registered = %q", got)
	}
}

// Fields publishes each exported int64 field in snake case, acronym runs
// included, or under its tag; reads it live; and skips what is not a counter:
// unexported fields, other types and named int64 types.
func TestRegistryFields(t *testing.T) {
	var st struct {
		RNRNakSent   int64
		DCQCNCuts    int64
		SRQGrows     int64
		Sent         int64
		AccessErrors int64 `metric:"remote_access_errs"`
		hidden       int64
		Level        int
		Ratio        float64
		Wait         sim.Duration
		Label        string
	}
	r := NewRegistry()
	r.Fields("rnic.0", &st)
	st.RNRNakSent, st.DCQCNCuts, st.SRQGrows, st.Sent, st.AccessErrors, st.hidden = 1, 2, 3, 4, 5, 6
	want := []Entry{{"rnic.0.dcqcn_cuts", 2}, {"rnic.0.remote_access_errs", 5}, {"rnic.0.rnr_nak_sent", 1}, {"rnic.0.sent", 4}, {"rnic.0.srq_grows", 3}}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	st.Sent++
	if v, ok := r.Value("rnic.0.sent"); !ok || v != 5 {
		t.Fatalf("Value(rnic.0.sent) = %d,%v after an increment, want 5", v, ok)
	}
}

func TestZeroHandlesAreNoOps(t *testing.T) {
	var h Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("zero handle retained state")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 0; i < 99; i++ {
		h.Observe(1) // bucket [1,2) → upper bound 1
	}
	h.Observe(1 << 20)
	d := r.get("h", true).h
	if p50 := d.quantile(50); p50 != 1 {
		t.Errorf("p50 = %d, want 1", p50)
	}
	if p99 := d.quantile(99); p99 != 1 {
		t.Errorf("p99 = %d, want 1", p99)
	}
	if p100 := d.quantile(100); p100 != (1<<21)-1 {
		t.Errorf("p100 = %d, want %d", p100, (1<<21)-1)
	}
}

func TestTimelineDisabledRecordsNothing(t *testing.T) {
	var tl Timeline
	tl.Instant("x", "t", 0, 0)
	tl.Complete("y", "t", 0, 1, 0)
	if tl.Len() != 0 || tl.Enabled() {
		t.Fatal("disabled timeline recorded events")
	}
}

func TestTimelineJSONIsValidChromeTrace(t *testing.T) {
	var tl Timeline
	tl.Enable(64)
	tl.Instant("dcqcn.cut", "rnic.0", 1500, 42)
	tl.Complete("pfc.pause", "fabric", 1000, 2500, 9)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// process_name + thread_name ×2 + the two events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 3 || phases["i"] != 1 || phases["X"] != 1 {
		t.Fatalf("phase mix = %v", phases)
	}
}

func TestFlightTripNamesCulprit(t *testing.T) {
	f := NewFlight(16)
	f.Record(100, CatFilterDrop, 0, 7, 512, 0)
	f.Record(200, CatRetransmit, 0, 7, 1, 0)
	d := f.Trip(300, CatRetryExhausted, 0, 7)
	if d.Reason != CatRetryExhausted || len(d.Events) != 3 {
		t.Fatalf("dump = %+v", d)
	}
	s := d.String()
	for _, want := range []string{"retransmit.exhausted", "filter.drop", "retransmit", "qpn=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump does not name %q:\n%s", want, s)
		}
	}
	if len(f.Dumps()) != 1 {
		t.Fatalf("dumps = %d", len(f.Dumps()))
	}
}

func TestFlightDumpCap(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 12; i++ {
		f.Trip(sim.Time(i), CatWindowStall, 0, 0)
	}
	if len(f.Dumps()) != 8 {
		t.Fatalf("retained %d dumps, want 8", len(f.Dumps()))
	}
	if f.Dumps()[7].At != 11 {
		t.Fatalf("newest dump at %v, want 11", f.Dumps()[7].At)
	}
}

// TestFlightDumpStatesWhatItLost: a dump carries the recorder's running
// count and how many events the ring had overwritten when it froze, and its
// rendering says so — a truncated history must not read as a complete one.
func TestFlightDumpStatesWhatItLost(t *testing.T) {
	f := NewFlight(4)
	d := f.Trip(1, CatWindowStall, 0, 0)
	if d.Seq != 1 || d.Lost != 0 || strings.Contains(d.String(), "lost") {
		t.Fatalf("first dump: seq=%d lost=%d\n%s", d.Seq, d.Lost, d.String())
	}
	for i := 0; i < 9; i++ {
		f.Record(sim.Time(2+i), CatRetransmit, 0, 7, int64(i), 0)
	}
	d = f.Trip(20, CatRetryExhausted, 0, 7)
	// 1 + 9 + 1 records through a 4-slot ring: 7 overwritten.
	if d.Seq != 2 || d.Lost != 7 || len(d.Events) != 4 {
		t.Fatalf("second dump: seq=%d lost=%d events=%d, want 2/7/4", d.Seq, d.Lost, len(d.Events))
	}
	if !strings.Contains(d.String(), "(4 events, 7 lost)") {
		t.Fatalf("dump does not state its loss:\n%s", d.String())
	}
}

// TestFlightMirrorsOntoTimeline: the recorder For attaches puts each record
// on the engine's timeline while it is enabled — named after its category,
// on its layer's track, carrying A — and nothing while it is not; a bare
// NewFlight mirrors nothing.
func TestFlightMirrorsOntoTimeline(t *testing.T) {
	s := For(sim.NewEngine())
	s.Flight.Record(1, CatRetransmit, 3, 7, 1, 0)
	if s.Trace.Len() != 0 {
		t.Fatal("a record reached a disabled timeline")
	}
	s.Trace.Enable(64)
	s.Flight.Record(2, CatRetransmit, 3, 7, 2, 0)
	s.Flight.Trip(3, CatChannelDegraded, 12, 7)
	s.Flight.Record(4, CatPFCPause, -1, 0, 4096, 1)
	s.Flight.Record(5, CatChaosFault, -1, 0, 1, 0)
	s.Flight.Record(6, CatSlowPoll, 0, 0, 900, 0)
	want := []Event{
		{Name: "retransmit", Track: "rnic.3", At: 2, Arg: 2, Kind: KindInstant},
		{Name: "ch.degraded", Track: "xrdma.12", At: 3, Kind: KindInstant},
		{Name: "pfc.pause", Track: "fabric", At: 4, Arg: 4096, Kind: KindInstant},
		{Name: "chaos.fault", Track: "chaos", At: 5, Arg: 1, Kind: KindInstant},
		{Name: "slow.poll", Track: "xrdma.0", At: 6, Arg: 900, Kind: KindInstant},
	}
	if got := s.Trace.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline:\n%+v\nwant\n%+v", got, want)
	}
	for c := CatNone + 1; c < catCount; c++ {
		if cats[c].name == "" {
			t.Errorf("category %d has no name", c)
		}
	}

	var tl Timeline
	tl.Enable(64)
	bare := NewFlight(16)
	bare.Record(1, CatRetransmit, 3, 7, 1, 0)
	if tl.Len() != 0 || bare.tl != nil {
		t.Fatal("a bare NewFlight mirrors")
	}
}

func TestForIsEngineKeyed(t *testing.T) {
	e1, e2 := sim.NewEngine(), sim.NewEngine()
	s1, s2 := For(e1), For(e2)
	if s1 == s2 {
		t.Fatal("distinct engines share a telemetry set")
	}
	if For(e1) != s1 {
		t.Fatal("For is not idempotent per engine")
	}
	e1.After(time1, func() {})
	e1.Run()
	if v, _ := s1.Reg.Value("sim.fired"); v != 1 {
		t.Fatalf("sim.fired = %d, want 1", v)
	}
	if v, _ := s2.Reg.Value("sim.fired"); v != 0 {
		t.Fatalf("other engine's sim.fired = %d, want 0", v)
	}
}

const time1 = sim.Microsecond

func TestCollectorMergedTrace(t *testing.T) {
	col := &Collector{TraceCap: 64}
	e1, e2 := sim.NewEngine(), sim.NewEngine()
	col.Observe(e1, "b.second")
	col.Observe(e2, "a.first")
	For(e1).Trace.Instant("x", "t", 10, 0)
	For(e2).Trace.Instant("y", "t", 20, 0)
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	obs := col.Observations()
	if obs[0].Label != "a.first" || obs[1].Label != "b.second" {
		t.Fatalf("observations not sorted by label: %v", obs)
	}
	// 2 process_name + 2 thread_name + 2 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6:\n%s", len(doc.TraceEvents), buf.String())
	}
}

func TestZeroAllocHotPaths(t *testing.T) {
	h := NewRegistry().Histogram("h")
	var tl Timeline
	tl.Enable(1024)
	f := NewFlight(256)

	check := func(name string, fn func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
	check("Histogram.Observe", func() { h.Observe(1234) })
	check("Timeline.Instant", func() { tl.Instant("n", "t", 1, 2) })
	check("Timeline.Complete", func() { tl.Complete("n", "t", 1, 2, 3) })
	check("Flight.Record", func() { f.Record(1, CatRetransmit, 0, 1, 2, 3) })
	traced := For(sim.NewEngine())
	traced.Trace.Enable(1024)
	traced.Flight.Record(1, CatRetransmit, 0, 1, 2, 3) // interns rnic.0
	check("Flight.Record traced", func() { traced.Flight.Record(1, CatRetransmit, 0, 1, 2, 3) })
}

// Every engine builds its telemetry set, used or not — each benchmark
// workload and each reproduce world — so what For allocates up front must
// stay small: the flight ring, the registry and a few headers, with no
// per-record buffer sized for a trace nobody reads.
func TestSetFootprint(t *testing.T) {
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	For(eng)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("a fresh engine's telemetry.For allocated %d bytes, budget 64 KiB", n)
	} else {
		t.Logf("telemetry.For allocated %d bytes", n)
	}
}
