package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// kind discriminates the metric variants stored in a Registry.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind        // a collected family's member, as WritePrometheus carries it
	gaugeFuncKind
	histKind
)

type metric struct {
	name string
	kind kind
	v    int64
	fn   func() int64
	h    *histData
}

// histData is a log₂-bucket histogram: bucket i counts observations v
// with bits.Len64(uint64(v)) == i, i.e. bucket 0 holds zeros and bucket
// i≥1 holds [2^(i-1), 2^i).
type histData struct {
	buckets [64]int64
	count   int64
	sum     int64
}

// observe records one sample. Zero and negative samples land in bucket 0.
func (d *histData) observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	d.buckets[idx]++
	d.count++
	d.sum += v
}

// Counter is a pre-resolved handle to a monotonically increasing value.
// The zero Counter is a no-op, so optional instrumentation needs no nil
// checks at call sites.
type Counter struct{ m *metric }

// Add increments the counter by d.
func (c Counter) Add(d int64) {
	if c.m != nil {
		c.m.v += d
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c Counter) Value() int64 {
	if c.m == nil {
		return 0
	}
	return c.m.v
}

// Histogram is a pre-resolved handle to a log₂-bucket histogram.
type Histogram struct{ h *histData }

// Observe records one sample. Negative samples land in bucket 0.
func (h Histogram) Observe(v int64) {
	if h.h != nil {
		h.h.observe(v)
	}
}

// Count reports how many samples were observed.
func (h Histogram) Count() int64 {
	if h.h == nil {
		return 0
	}
	return h.h.count
}

// quantile estimates the q-th percentile (0 < q ≤ 100) from the log₂
// buckets. The bucket where the cumulative count crosses ⌈count·q/100⌉
// bounds the answer to [2^(i-1), 2^i); within the bucket the estimate
// interpolates linearly by rank, assuming samples spread evenly across
// the bucket's range. All arithmetic is integer, so the estimate is
// bit-identical across runs; a rank landing on the last sample of a
// bucket reports the bucket's inclusive upper edge, which keeps the
// old coarse behaviour as the interpolation's boundary case.
func (d *histData) quantile(q int64) int64 {
	if d.count == 0 {
		return 0
	}
	target := (d.count*q + 99) / 100
	var cum int64
	for i, n := range d.buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := int64(1) << uint(i-1)
			hi := (int64(1) << uint(i)) - 1 // wraps to MaxInt64 for i=63, intentionally
			rank := target - (cum - n)      // 1..n within this bucket
			span := hi - lo
			// span/n*rank + span%n*rank/n avoids overflowing the
			// span·rank product for the huge top buckets.
			return lo + span/n*rank + span%n*rank/n
		}
	}
	return int64(^uint64(0) >> 1)
}

// Entry is one named value in a registry snapshot.
type Entry struct {
	Name  string
	Value int64
}

// Registry holds the named metrics of one engine. It is not
// goroutine-safe: like the engine it is keyed to, a registry belongs to
// exactly one experiment goroutine.
type Registry struct {
	byName map[string]*metric
	order  []*metric
	// families are the Collect callbacks, in first-registration order.
	families []gaugeFamily
}

type gaugeFamily struct {
	name string
	fn   func(emit func(name string, v int64))
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) get(name string, k kind) *metric {
	if m, ok := r.byName[name]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("telemetry: %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, kind: k}
	if k == histKind {
		m.h = &histData{}
	}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter resolves (registering on first use) a counter handle.
func (r *Registry) Counter(name string) Counter {
	return Counter{m: r.get(name, counterKind)}
}

// Histogram resolves (registering on first use) a histogram handle.
func (r *Registry) Histogram(name string) Histogram {
	return Histogram{h: r.get(name, histKind).h}
}

// GaugeFunc registers a gauge whose value is computed by fn, evaluated
// only at snapshot time — the mechanism for exposing existing counter
// structs with zero hot-path cost. Re-registering a name replaces fn.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	m := r.get(name, gaugeFuncKind)
	m.fn = fn
}

// Collect registers a family of gauges whose members come and go: fn runs
// at Snapshot, Digest and WritePrometheus time and emits one named value per
// member alive at that instant — what GaugeFunc is for a name, applied to a
// population, so a member that left is simply absent and nothing is ever
// unregistered. Re-registering a family replaces fn.
func (r *Registry) Collect(family string, fn func(emit func(name string, v int64))) {
	for i := range r.families {
		if r.families[i].name == family {
			r.families[i].fn = fn
			return
		}
	}
	r.families = append(r.families, gaugeFamily{family, fn})
}

// Probe is a pre-resolved read-only handle over a metric of any kind —
// the zero-allocation way for a periodic sampler (the xrmon agents) to
// read the same metric every tick without re-hashing its name. A probe
// tracks its metric through GaugeFunc re-registration (the fn is
// replaced on the same slot). Collected entries have no slot to probe.
type Probe struct{ m *metric }

// Probe resolves a read handle; ok is false when the name is absent
// (the returned probe then reads zero and reports Valid()==false).
func (r *Registry) Probe(name string) (Probe, bool) {
	m, ok := r.byName[name]
	return Probe{m: m}, ok
}

// Valid reports whether the probe is bound to a metric.
func (p Probe) Valid() bool { return p.m != nil }

// Value evaluates the probed metric the way Registry.Value does
// (histograms report their sample count); an unbound probe reads 0.
func (p Probe) Value() int64 {
	if p.m == nil {
		return 0
	}
	switch p.m.kind {
	case gaugeFuncKind:
		return p.m.fn()
	case histKind:
		return p.m.h.count
	default:
		return p.m.v
	}
}

// Value evaluates the metric called name; ok is false when absent.
// Histograms report their sample count.
func (r *Registry) Value(name string) (v int64, ok bool) {
	m, present := r.byName[name]
	if !present {
		return 0, false
	}
	switch m.kind {
	case gaugeFuncKind:
		return m.fn(), true
	case histKind:
		return m.h.count, true
	default:
		return m.v, true
	}
}

// Snapshot evaluates every metric and collected family and returns entries
// sorted by name. Histograms expand into .count, .sum, .p50 and .p99 entries.
func (r *Registry) Snapshot() []Entry {
	out := make([]Entry, 0, len(r.order)+3*len(r.order)/2)
	for _, m := range r.order {
		switch m.kind {
		case gaugeFuncKind:
			out = append(out, Entry{m.name, m.fn()})
		case histKind:
			out = append(out,
				Entry{m.name + ".count", m.h.count},
				Entry{m.name + ".sum", m.h.sum},
				Entry{m.name + ".p50", m.h.quantile(50)},
				Entry{m.name + ".p99", m.h.quantile(99)})
		default:
			out = append(out, Entry{m.name, m.v})
		}
	}
	for _, f := range r.families {
		f.fn(func(name string, v int64) { out = append(out, Entry{name, v}) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Digest renders the snapshot as sorted "name=value" lines — the
// bit-identical-across-`-j` determinism fingerprint.
func (r *Registry) Digest() string {
	var b strings.Builder
	for _, e := range r.Snapshot() {
		fmt.Fprintf(&b, "%s=%d\n", e.Name, e.Value)
	}
	return b.String()
}

// Diff returns after-minus-before for every name in after (names only
// in before are dropped; names only in after diff against zero).
func Diff(before, after []Entry) []Entry {
	prev := make(map[string]int64, len(before))
	for _, e := range before {
		prev[e.Name] = e.Value
	}
	out := make([]Entry, 0, len(after))
	for _, e := range after {
		out = append(out, Entry{e.Name, e.Value - prev[e.Name]})
	}
	return out
}

// Table renders the snapshot as a netstat-style aligned table, grouped
// by the first dotted name component with a blank line between groups.
func (r *Registry) Table() string {
	return RenderEntries(r.Snapshot())
}

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z0-9_:]: dots (and anything else illegal) become underscores,
// and a leading digit is escaped with an underscore.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus emits every metric in the Prometheus text exposition
// format (version 0.0.4): a # HELP and # TYPE line per family, then
// the sample. Counters map to counter, gauges and gauge funcs to
// gauge, and histograms to native histogram families: one cumulative
// `le` bucket per used log₂ bucket (upper edge 2^i-1, inclusive, which
// matches Prometheus's ≤ semantics exactly), the mandatory le="+Inf"
// bucket, then _sum and _count. Output is in sorted-name order so it
// is deterministic across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := make([]*metric, len(r.order))
	copy(ms, r.order)
	for _, f := range r.families {
		f.fn(func(name string, v int64) { ms = append(ms, &metric{name: name, kind: gaugeKind, v: v}) })
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		name := promName(m.name)
		switch m.kind {
		case counterKind:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, m.name, name, name, m.v)
		case histKind:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, m.name, name)
			top := 0
			for i, n := range m.h.buckets {
				if n > 0 {
					top = i
				}
			}
			var cum int64
			for i := 0; i <= top; i++ {
				cum += m.h.buckets[i]
				ub := int64(0)
				if i > 0 {
					ub = (int64(1) << uint(i)) - 1
				}
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, ub, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, m.h.count)
			fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, m.h.sum, name, m.h.count)
		default:
			v := m.v
			if m.kind == gaugeFuncKind {
				v = m.fn()
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, m.name, name, name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderEntries renders pre-snapshotted entries the way Table does.
func RenderEntries(entries []Entry) string {
	width := 0
	for _, e := range entries {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	var b strings.Builder
	group := ""
	for i, e := range entries {
		g := e.Name
		if dot := strings.IndexByte(g, '.'); dot >= 0 {
			g = g[:dot]
		}
		if i > 0 && g != group {
			b.WriteByte('\n')
		}
		group = g
		fmt.Fprintf(&b, "%-*s %12d\n", width, e.Name, e.Value)
	}
	return b.String()
}
