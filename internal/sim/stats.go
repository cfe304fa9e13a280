package sim

import (
	"math"
	"sort"
)

// Summary accumulates scalar samples and answers mean/percentile queries.
// It keeps every sample; experiment populations here are small enough
// (≤ a few million) that exactness beats sketching.
type Summary struct {
	samples []float64
	sorted  bool
	sum     float64
	min     float64
	max     float64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// NewSummaryCap returns an empty summary pre-sized for n samples, so a
// harness that knows its sample count up front (e.g. a fixed-iteration
// benchmark loop) takes no append-growth allocations while recording.
func NewSummaryCap(n int) *Summary {
	s := NewSummary()
	if n > 0 {
		s.samples = make([]float64, 0, n)
	}
	return s
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// AddDuration records a duration sample in microseconds.
func (s *Summary) AddDuration(d Duration) { s.Add(d.Micros()) }

// Count reports the number of samples.
func (s *Summary) Count() int { return len(s.samples) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min reports the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Percentile reports the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.samples[rank-1]
}

// Series is a time series of (t, value) points, used for the
// bandwidth/latency/counter-over-time figures.
type Series struct {
	Name   string
	Times  []Time
	Values []float64
}

// Append adds one point.
func (s *Series) Append(t Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Mean reports the mean of the values, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max reports the largest value, or 0 when empty.
func (s *Series) Max() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min reports the smallest value, or 0 when empty.
func (s *Series) Min() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Tail returns the mean of the last frac (0..1] of the points — the
// steady-state portion of a ramp-up series.
func (s *Series) Tail(frac float64) float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	start := n - int(float64(n)*frac)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	var sum float64
	for _, v := range s.Values[start:] {
		sum += v
	}
	return sum / float64(n-start)
}

// Rate tracks an event counter bucketed into fixed windows, producing a
// Series of per-window rates. Used for IOPS/CNP/RNR-per-interval plots.
type Rate struct {
	eng    *Engine
	window Duration
	start  Time
	count  float64
	out    *Series
}

// NewRate creates a bucketed rate recorder writing into out.
func NewRate(eng *Engine, window Duration, out *Series) *Rate {
	return &Rate{eng: eng, window: window, start: eng.Now(), out: out}
}

// Add records n events at the current time, flushing any completed windows.
func (r *Rate) Add(n float64) {
	r.catchUp()
	r.count += n
}

func (r *Rate) catchUp() {
	for r.eng.Now() >= r.start.Add(r.window) {
		r.out.Append(r.start, r.count)
		r.count = 0
		r.start = r.start.Add(r.window)
	}
}

// Flush emits the current partial window.
func (r *Rate) Flush() {
	r.catchUp()
	r.out.Append(r.start, r.count)
	r.count = 0
}
