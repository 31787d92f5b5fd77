// Package stats provides the small statistical toolkit shared by the planner,
// the online scheduler, and the experiment harness: summary statistics,
// percentiles, SLA attainment, windowed moving averages, time-weighted
// means, and timestamped series for memory-utilization plots.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = quantileSorted(sorted, 0.50)
	s.P90 = quantileSorted(sorted, 0.90)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks. It copies and sorts xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Window is a fixed-capacity sliding-window mean, used for the autoscaler's
// recent-latency windows.
type Window struct {
	buf  []float64
	next int
	full bool
	sum  float64
}

// NewWindow returns a sliding window holding the latest n observations.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic("stats: window size must be positive")
	}
	return &Window{buf: make([]float64, n)}
}

// Observe appends x, evicting the oldest sample once the window is full.
func (w *Window) Observe(x float64) {
	if w.full {
		w.sum -= w.buf[w.next]
	}
	w.buf[w.next] = x
	w.sum += x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of the held samples (0 when empty).
func (w *Window) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	return w.sum / float64(n)
}

// TimeWeighted is an online time-weighted summarizer for a step-valued signal:
// the value observed at time t holds until the next observation. Unlike Series
// it keeps O(1) state, so it can back thousands of telemetry gauges. Times are
// expected nondecreasing; a backwards step contributes zero weight rather than
// corrupting the accumulator (re-attached clocks restart at zero).
type TimeWeighted struct {
	area    float64 // integral of value dt
	span    float64 // total dt folded in
	last    float64 // current value of the step function
	lastT   Time
	started bool
}

// Observe advances the step function to time t and sets its value to v.
func (tw *TimeWeighted) Observe(t Time, v float64) {
	tw.Advance(t)
	tw.last = v
}

// Advance accrues the current value up to time t without changing it.
func (tw *TimeWeighted) Advance(t Time) {
	if !tw.started {
		tw.started = true
		tw.lastT = t
		return
	}
	dt := t - tw.lastT
	if dt > 0 {
		tw.area += tw.last * dt
		tw.span += dt
	}
	tw.lastT = t
}

// Value returns the current value of the step function.
func (tw *TimeWeighted) Value() float64 { return tw.last }

// MeanAt returns the time-weighted mean over the observed span extended to
// t, without advancing: the floats Advance(t) would fold in, combined in the
// same order, so a read at t never changes what later observations
// integrate. Before any time has elapsed it returns the current value (the
// mean of a zero-length span).
func (tw *TimeWeighted) MeanAt(t Time) float64 {
	area, span := tw.area, tw.span
	if dt := t - tw.lastT; tw.started && dt > 0 {
		area += tw.last * dt
		span += dt
	}
	if span == 0 {
		return tw.last
	}
	return area / span
}

// Point is a timestamped sample in a Series.
type Point struct {
	T Time
	V float64
}

// Time aliases the simulator's float64-seconds timestamps so that stats does
// not import the sim package.
type Time = float64

// Series is an append-only timestamped sample sequence (memory-utilization
// curves, throughput over time, ...).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point. Timestamps are expected nondecreasing; Add does not
// enforce it because resampling tolerates disorder.
func (s *Series) Add(t Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean returns the time-weighted mean of the series between its first and
// last timestamps, treating the value as a step function (each point's value
// holds until the next point). A series with fewer than two points returns
// the plain mean of its values.
func (s *Series) Mean() float64 {
	n := len(s.Points)
	switch n {
	case 0:
		return 0
	case 1:
		return s.Points[0].V
	}
	var area, span float64
	for i := 0; i+1 < n; i++ {
		dt := s.Points[i+1].T - s.Points[i].T
		if dt < 0 {
			dt = 0
		}
		area += s.Points[i].V * dt
		span += dt
	}
	if span == 0 {
		var sum float64
		for _, p := range s.Points {
			sum += p.V
		}
		return sum / float64(n)
	}
	return area / span
}

// Max returns the maximum value in the series (0 when empty).
func (s *Series) Max() float64 {
	var m float64
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// Resample returns n values sampled at uniform times across the series span,
// holding each point's value until the next (step interpolation). Useful for
// printing fixed-width figure series regardless of event density.
func (s *Series) Resample(n int) []float64 {
	if n <= 0 || len(s.Points) == 0 {
		return nil
	}
	out := make([]float64, n)
	t0 := s.Points[0].T
	t1 := s.Points[len(s.Points)-1].T
	if t1 <= t0 {
		for i := range out {
			out[i] = s.Points[len(s.Points)-1].V
		}
		return out
	}
	j := 0
	for i := 0; i < n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n-1)
		for j+1 < len(s.Points) && s.Points[j+1].T <= t {
			j++
		}
		out[i] = s.Points[j].V
	}
	return out
}
