package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	s := NewSummary()
	s.Add(10)
	s.Add(20)
	_ = s.Percentile(50) // forces sort
	s.Add(1)
	if got := s.Percentile(1); got != 1 {
		t.Fatalf("P1 after re-add = %v, want 1", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestSummaryPercentileProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSummary()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		prev := math.Inf(-1)
		for p := 1.0; p <= 100; p += 7 {
			q := s.Percentile(p)
			if q < prev || q < s.Min() || q > s.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: nearest-rank percentile matches a reference implementation.
func TestSummaryPercentileReference(t *testing.T) {
	prop := func(vals []float64, pRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(pRaw%100) + 1
		s := NewSummary()
		for _, v := range vals {
			s.Add(v)
		}
		ref := append([]float64(nil), vals...)
		sort.Float64s(ref)
		rank := int(math.Ceil(p / 100 * float64(len(ref))))
		if rank < 1 {
			rank = 1
		}
		return s.Percentile(p) == ref[rank-1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Tail(0.5) != 0 {
		t.Fatal("empty series should report zeros")
	}
	for i := 1; i <= 10; i++ {
		s.Append(Time(i), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 5.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Max() != 10 || s.Min() != 1 {
		t.Fatalf("Max/Min = %v/%v", s.Max(), s.Min())
	}
	// Tail(0.2) = mean of last 2 points = 9.5
	if got := s.Tail(0.2); got != 9.5 {
		t.Fatalf("Tail(0.2) = %v, want 9.5", got)
	}
}

func TestRateBucketing(t *testing.T) {
	e := NewEngine()
	var out Series
	r := NewRate(e, 100, &out)
	// 3 events in window [0,100), 2 in [100,200), none in [200,300).
	e.At(10, func() { r.Add(1) })
	e.At(20, func() { r.Add(2) })
	e.At(150, func() { r.Add(2) })
	e.At(310, func() { r.Add(1) })
	e.Run()
	r.Flush()
	want := []float64{3, 2, 0, 1}
	if len(out.Values) != len(want) {
		t.Fatalf("buckets = %v, want %v", out.Values, want)
	}
	for i := range want {
		if out.Values[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", out.Values, want)
		}
	}
	if out.Times[1] != 100 || out.Times[3] != 300 {
		t.Fatalf("bucket times = %v", out.Times)
	}
}

func TestSummaryCapNoGrowth(t *testing.T) {
	s := NewSummaryCap(100)
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("pre-sized summary should start empty")
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.samples = s.samples[:0]
		s.sum, s.min, s.max = 0, math.Inf(1), math.Inf(-1)
		for i := 0; i < 100; i++ {
			s.Add(float64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Add within cap allocated %.0f times per run", allocs)
	}
	if s.Count() != 100 || s.Min() != 0 || s.Max() != 99 {
		t.Errorf("Count=%d Min=%v Max=%v", s.Count(), s.Min(), s.Max())
	}
}
