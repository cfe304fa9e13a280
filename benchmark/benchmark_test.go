package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testOps keeps the whole package under ten seconds.
var testOps = map[string]int{
	"pingpong_64B": 300, "incast_128K": 48, "onesided_4K": 300,
	"mux_mesh_512B": 300, "connect_churn": 48,
}

func small(s *spec, seed uint64, trace bool) *result {
	r, _ := measure(s, runOpts{seed: seed, rounds: 2, warm: 1, ops: testOps[s.name], worlds: 1, trace: trace})
	return r
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that got holds exactly the metrics want names, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, what string, want []specMetric, got map[string]metric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json is not reported", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", what, len(got), len(want))
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(specs))
	}
	for i, w := range spec.Workloads {
		if specs[i].name != w.Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, specs[i].name, w.Name)
		}
	}
}

// TestEveryMetricReported runs every workload and the ladder at two rounds
// of a few ops and holds the output against BENCHMARK.json.
func TestEveryMetricReported(t *testing.T) {
	spec := loadSpec(t)
	lad := runLadder(0.005)
	for _, s := range specs {
		e2e := small(s, 1, false)
		if !e2e.Correct || e2e.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed", s.name, e2e.Failed, e2e.Attempted)
		}
		checkMetrics(t, s.name, spec.EndToEnd, e2e.Metrics)
		for _, m := range spec.EndToEnd {
			if e2e.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", s.name, m.Name)
			}
		}

		traced := small(s, 1, true)
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed", s.name, traced.Failed, traced.Attempted)
		}
		traced.merge(lad) // panics on a name reported twice
		checkMetrics(t, s.name+" traced", spec.PerLayer, traced.Metrics)
		if v := traced.Metrics["rnic.access_errors"].Value + traced.Metrics["xrdma.channels_broken"].Value; v != 0 {
			t.Errorf("%s: access errors + broken channels = %v", s.name, v)
		}
	}
	// Mallocs is process-wide, so a few stray runtime allocations land in
	// the rung's hundred ops; one per op would be the loop's own.
	if a := lad.res.Metrics["sim.schedule_64B_allocs"].Value; a >= 0.5 {
		t.Errorf("sim.schedule rung allocates %v per op; the driver loop must not", a)
	}
}

// TestDeterministic: simulated results are pure functions of the seed.
func TestDeterministic(t *testing.T) {
	for _, s := range specs {
		a, b, other := small(s, 1, false), small(s, 1, false), small(s, 2, false)
		if a.Digest != b.Digest {
			t.Errorf("%s: sim_digest %s then %s with one seed", s.name, a.Digest, b.Digest)
		}
		for name, m := range a.Metrics {
			if strings.HasPrefix(name, "sim_") && m.Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v with one seed", s.name, name, m.Value, b.Metrics[name].Value)
			}
		}
		// pingpong_64B has no seeded input that moves simulated time.
		if s.name != "pingpong_64B" && a.Digest == other.Digest {
			t.Errorf("%s: sim_digest %s with seeds 1 and 2", s.name, a.Digest)
		}
		ta, tb := small(s, 1, true), small(s, 1, true)
		for _, name := range []string{"sim.events_per_op", "xrdma.polls_per_op", "fabric.pkts_per_op"} {
			if ta.Metrics[name].Value != tb.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v with one seed", s.name, name, ta.Metrics[name].Value, tb.Metrics[name].Value)
			}
		}
		if ta.Digest != a.Digest {
			t.Errorf("%s: tracing changed sim_digest, %s to %s", s.name, a.Digest, ta.Digest)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host float64, failed int64) string {
		p := filepath.Join(dir, name)
		emit(p, &result{Workload: "pingpong_64B", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"host_us_per_op": {host, "us"}}})
		return p
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.jsonl", 10, 0)
	stdout := os.Stdout
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer func() { os.Stdout = stdout }()
	if code := runCompare(spec, base, write("same.jsonl", 10.1, 0)); code != 0 {
		t.Errorf("1%% slower: exit %d, want 0", code)
	}
	if code := runCompare(spec, base, write("slow.jsonl", 20, 0)); code != 1 {
		t.Errorf("2x slower: exit %d, want 1", code)
	}
	if code := runCompare(spec, base, write("fail.jsonl", 10, 1)); code != 1 {
		t.Errorf("more failed ops: exit %d, want 1", code)
	}
}
