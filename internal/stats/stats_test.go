package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("count/min/max wrong: %+v", s)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("mean = %g, want 3", s.Mean)
	}
	if !almostEqual(s.P50, 3, 1e-12) {
		t.Errorf("p50 = %g, want 3", s.P50)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-9) {
		t.Errorf("std = %g, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of empty slice should be NaN")
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element percentile = %g, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestWindowMean(t *testing.T) {
	w := NewWindow(3)
	if w.Mean() != 0 || w.Len() != 0 {
		t.Fatal("empty window not zero")
	}
	w.Observe(1)
	w.Observe(2)
	if !almostEqual(w.Mean(), 1.5, 1e-12) {
		t.Errorf("mean = %g, want 1.5", w.Mean())
	}
	w.Observe(3)
	w.Observe(10) // evicts 1
	if w.Len() != 3 {
		t.Errorf("len = %d, want 3", w.Len())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
}

// Property: a window of size n over a long stream always equals the plain
// mean of the last n observations.
func TestQuickWindowMatchesTail(t *testing.T) {
	f := func(raw []uint8, sizeRaw uint8) bool {
		size := int(sizeRaw%16) + 1
		w := NewWindow(size)
		var all []float64
		for _, r := range raw {
			x := float64(r)
			w.Observe(x)
			all = append(all, x)
		}
		if len(all) == 0 {
			return w.Mean() == 0
		}
		tail := all
		if len(tail) > size {
			tail = tail[len(tail)-size:]
		}
		return almostEqual(w.Mean(), Mean(tail), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Percentile(xs, p)
			if q < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%g", p)
			}
			if q < sorted[0]-1e-9 || q > sorted[n-1]+1e-9 {
				t.Fatalf("percentile out of range at p=%g", p)
			}
			prev = q
		}
	}
}

func TestSeriesTimeWeightedMean(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(1, 20) // 10 held for [0,1)
	s.Add(3, 0)  // 20 held for [1,3)
	// mean = (10*1 + 20*2) / 3
	if !almostEqual(s.Mean(), 50.0/3.0, 1e-9) {
		t.Errorf("Series.Mean = %g, want %g", s.Mean(), 50.0/3.0)
	}
}

func TestSeriesEdgeCases(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 {
		t.Error("empty series should report zeros")
	}
	s.Add(5, 42)
	if s.Mean() != 42 || s.Max() != 42 {
		t.Error("single-point series")
	}
	// Two points at the same timestamp: plain mean fallback.
	var z Series
	z.Add(1, 10)
	z.Add(1, 30)
	if !almostEqual(z.Mean(), 20, 1e-12) {
		t.Errorf("zero-span series mean = %g, want 20", z.Mean())
	}
}

func TestSeriesResample(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(10, 2)
	s.Add(20, 3)
	got := s.Resample(5)
	want := []float64{1, 1, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Resample = %v, want %v", got, want)
		}
	}
	if s.Resample(0) != nil {
		t.Error("Resample(0) should be nil")
	}
	var empty Series
	if empty.Resample(3) != nil {
		t.Error("Resample of empty series should be nil")
	}
}

func TestSeriesMax(t *testing.T) {
	var s Series
	s.Add(0, -5)
	s.Add(1, -2)
	s.Add(2, -9)
	if s.Max() != -2 {
		t.Errorf("Max = %g, want -2", s.Max())
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2) // 2 on [0,1)
	tw.Observe(1, 4) // 4 on [1,3)
	tw.Observe(3, 0) // 0 on [3,4)
	tw.Advance(4)
	// area = 2*1 + 4*2 + 0*1 = 10 over span 4.
	if got := tw.Mean(); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if tw.Value() != 0 {
		t.Errorf("Value = %g, want 0", tw.Value())
	}
}

func TestTimeWeightedMatchesSeriesMean(t *testing.T) {
	// TimeWeighted must agree with the offline Series step-function mean.
	times := []float64{0, 0.5, 0.75, 2, 2, 3.25}
	vals := []float64{1, 3, 0, 7, 2, 2}
	var tw TimeWeighted
	var s Series
	for i := range times {
		tw.Observe(times[i], vals[i])
		s.Add(times[i], vals[i])
	}
	if got, want := tw.Mean(), s.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TimeWeighted.Mean = %g, Series.Mean = %g", got, want)
	}
}

func TestTimeWeightedDegenerate(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 {
		t.Error("zero-value TimeWeighted should summarize to 0")
	}
	tw.Observe(5, 3)
	if tw.Mean() != 3 {
		t.Errorf("zero-span Mean = %g, want current value 3", tw.Mean())
	}
	// Backwards time contributes zero weight and must not poison the mean.
	tw.Observe(4, 9)
	tw.Advance(6)
	if got := tw.Mean(); got != 9 {
		t.Errorf("backwards-time Mean = %g, want 9 (only the 9-valued span accrued)", got)
	}
}

// TestTimeWeightedMeanAtIsReadOnly: MeanAt(t) equals Advance(t) then Mean
// bit for bit, and reading it leaves later integrals unchanged.
func TestTimeWeightedMeanAtIsReadOnly(t *testing.T) {
	times := []float64{0.3, 0.7, 0.7, 1.9, 1.5, 4.1}
	vals := []float64{1.1, 3.3, 0, 7.7, 2.2, 0.1}
	var read, twin TimeWeighted
	if got := read.MeanAt(1); got != 0 {
		t.Errorf("MeanAt on an empty summarizer = %g, want 0", got)
	}
	for i := range times {
		for _, at := range []float64{times[i] - 0.2, times[i], times[i] + 0.45} {
			advanced := read
			advanced.Advance(at)
			if got, want := read.MeanAt(at), advanced.Mean(); got != want {
				t.Errorf("MeanAt(%g) = %v, Advance+Mean = %v", at, got, want)
			}
		}
		read.Observe(times[i], vals[i])
		twin.Observe(times[i], vals[i])
	}
	if read != twin {
		t.Errorf("MeanAt changed the summarizer: %+v, want %+v", read, twin)
	}
}

// Mean serves only tests; the gauges read MeanAt.

// Mean returns the time-weighted mean over the observed span. Before any time
// has elapsed it returns the current value (the mean of a zero-length span).
func (tw *TimeWeighted) Mean() float64 {
	if tw.span == 0 {
		return tw.last
	}
	return tw.area / tw.span
}
