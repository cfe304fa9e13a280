package telemetry

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Within-bucket interpolation must track the exact quantiles of a known
// distribution far better than the old bucket-upper-bound answer, and
// must stay deterministic (pure integer math). The distribution is
// uniform 0..4095: every log₂ bucket above 2^k is exactly half full of
// the range it covers, so the exact quantile is computable in closed
// form and the interpolated answer should land on it (the per-bucket
// rank model is exact for uniform data).
func TestQuantileInterpolationUniform(t *testing.T) {
	var d histData
	const n = 4096
	for v := int64(0); v < n; v++ {
		idx := 0
		if v > 0 {
			idx = len(strconv.FormatInt(v, 2)) // bits.Len for positive v
		}
		d.buckets[idx]++
		d.count++
		d.sum += v
	}
	// Exact q-th percentile of sorted 0..4095 at target rank ⌈n·q/100⌉
	// is the value target-1.
	for _, q := range []int64{25, 50, 75, 90, 99, 100} {
		target := (d.count*q + 99) / 100
		exact := target - 1
		got := d.quantile(q)
		if got != exact {
			t.Errorf("p%d = %d, want exact %d", q, got, exact)
		}
	}
	// Repeatability: the estimate must be bit-identical across calls.
	if a, b := d.quantile(99), d.quantile(99); a != b {
		t.Fatalf("quantile not deterministic: %d vs %d", a, b)
	}
}

// The interpolated estimate degrades gracefully on non-uniform data: it
// must stay within the crossing bucket's [lo, hi] range, and the old
// behaviour (bucket upper bound) must remain the boundary case when the
// rank lands on the bucket's last sample.
func TestQuantileInterpolationBounds(t *testing.T) {
	var d histData
	for i := 0; i < 99; i++ {
		d.buckets[1]++ // value 1
		d.count++
		d.sum++
	}
	d.buckets[21]++ // one sample in [2^20, 2^21)
	d.count++
	d.sum += 1 << 20
	if p50 := d.quantile(50); p50 != 1 {
		t.Errorf("p50 = %d, want 1", p50)
	}
	if p100 := d.quantile(100); p100 != (1<<21)-1 {
		t.Errorf("p100 = %d, want upper edge %d (single-sample bucket)", p100, (1<<21)-1)
	}
}

// WritePrometheus must emit log₂ histograms as native histogram
// families. The test scrapes the exposition and re-parses it line by
// line: cumulative le buckets must be monotonic, the +Inf bucket must
// equal _count, and _sum/_count must match the observations.
func TestPrometheusHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("xrdma.0.rtt_ns")
	var wantSum, wantCount int64
	for _, v := range []int64{0, 1, 3, 3, 7, 100, 1000, 1000, 4000} {
		h.Observe(v)
		wantSum += v
		wantCount++
	}
	polls := struct{ Polls int64 }{5}
	r.Fields("xrdma.0", &polls)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if !strings.Contains(expo, "# TYPE xrdma_0_rtt_ns histogram") {
		t.Fatalf("exposition lacks native histogram TYPE line:\n%s", expo)
	}

	// Re-parse: collect every sample line of the histogram family.
	type bkt struct {
		le  string
		cum int64
	}
	var bkts []bkt
	var gotSum, gotCount int64
	var haveSum, haveCount bool
	sc := bufio.NewScanner(strings.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(fields[0], "xrdma_0_rtt_ns_bucket{le="):
			le := strings.TrimSuffix(strings.TrimPrefix(fields[0], `xrdma_0_rtt_ns_bucket{le="`), `"}`)
			bkts = append(bkts, bkt{le, v})
		case fields[0] == "xrdma_0_rtt_ns_sum":
			gotSum, haveSum = v, true
		case fields[0] == "xrdma_0_rtt_ns_count":
			gotCount, haveCount = v, true
		}
	}
	if !haveSum || !haveCount {
		t.Fatalf("exposition lacks _sum/_count:\n%s", expo)
	}
	if gotSum != wantSum || gotCount != wantCount {
		t.Fatalf("sum/count = %d/%d, want %d/%d", gotSum, gotCount, wantSum, wantCount)
	}
	if len(bkts) < 2 || bkts[len(bkts)-1].le != "+Inf" {
		t.Fatalf("bucket list must end with +Inf: %v", bkts)
	}
	if bkts[len(bkts)-1].cum != wantCount {
		t.Fatalf("+Inf bucket = %d, want count %d", bkts[len(bkts)-1].cum, wantCount)
	}
	prev := int64(-1)
	var edges []int64
	for _, b := range bkts[:len(bkts)-1] {
		if b.cum < prev {
			t.Fatalf("cumulative buckets not monotonic: %v", bkts)
		}
		prev = b.cum
		e, err := strconv.ParseInt(b.le, 10, 64)
		if err != nil {
			t.Fatalf("non-numeric le %q", b.le)
		}
		edges = append(edges, e)
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i] < edges[j] }) {
		t.Fatalf("le edges not ascending: %v", edges)
	}
	// Cross-check one cumulative value against the raw observations:
	// le="7" must cover {0,1,3,3,7} = 5 samples.
	found := false
	for _, b := range bkts {
		if b.le == "7" {
			found = true
			if b.cum != 5 {
				t.Fatalf(`le="7" cumulative = %d, want 5`, b.cum)
			}
		}
	}
	if !found {
		t.Fatalf(`exposition lacks the le="7" bucket: %v`, bkts)
	}
	// The exposition is deterministic.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != expo {
		t.Fatal("exposition not deterministic across calls")
	}
}

// Probe handles must read every metric kind and survive GaugeFunc and
// Fields re-registration (same slot, replaced read): nothing ever leaves the
// registry, so a resolved probe never goes stale — exactly the contract the
// xrmon agents rely on.
func TestProbeHandles(t *testing.T) {
	r := NewRegistry()
	old := struct{ C int64 }{7}
	r.Fields("p", &old)
	live := int64(3)
	r.GaugeFunc("g", func() int64 { return live })
	h := r.Histogram("h")
	h.Observe(1)
	h.Observe(2)

	for _, tc := range []struct {
		name string
		want int64
	}{{"p.c", 7}, {"g", 3}, {"h", 2}} {
		p, ok := r.Probe(tc.name)
		if !ok || !p.Valid() {
			t.Fatalf("Probe(%q) did not resolve", tc.name)
		}
		if got := p.Value(); got != tc.want {
			t.Fatalf("Probe(%q).Value() = %d, want %d", tc.name, got, tc.want)
		}
	}

	// GaugeFunc re-registration replaces fn on the same slot: old probes
	// must see the new closure.
	p, _ := r.Probe("g")
	r.GaugeFunc("g", func() int64 { return 42 })
	if got := p.Value(); got != 42 {
		t.Fatalf("probe missed GaugeFunc re-registration: %d, want 42", got)
	}
	// So does Fields over a new struct (a restarted node's fresh counters).
	p, _ = r.Probe("p.c")
	fresh := struct{ C int64 }{1}
	r.Fields("p", &fresh)
	if got := p.Value(); got != 1 {
		t.Fatalf("probe missed Fields re-registration: %d, want 1", got)
	}

	if p, ok := r.Probe("missing"); ok || p.Valid() || p.Value() != 0 {
		t.Fatal("absent probe must be invalid and read 0")
	}
}

// The interpolation shows up in Snapshot's derived .p50/.p99 entries.
func TestSnapshotQuantilesInterpolated(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := int64(0); v < 1024; v++ {
		h.Observe(v)
	}
	var p50 int64
	for _, e := range r.Snapshot() {
		if e.Name == "lat.p50" {
			p50 = e.Value
		}
	}
	if p50 != 511 {
		t.Fatalf("lat.p50 = %d, want interpolated 511 (old coarse answer was %d)", p50, int64(1)<<9*2-1)
	}
}
