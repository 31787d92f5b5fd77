package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{7, 1, 3, 9, 5}, 5, 2, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0},
		{19, 0},
		{20, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{1100, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name       string
		base, cur  []float64
		bound      float64
		higherGood bool
		want       string
	}{
		{"unchanged", steady, steady, 0.05, false, verdictSame},
		{"inside bound", steady, shift(steady, 1.03), 0.05, false, verdictSame},
		{"beyond bound", steady, shift(steady, 1.08), 0.05, false, verdictWorse},
		{"better beyond spread", steady, shift(steady, 0.95), 0.05, false, verdictBetter},
		{"better median, overlapping runs", steady, []float64{95, 95.5, 96, 96.5, 99.8, 100.2}, 0.05, false, verdictSame},
		{"higher is better", steady, shift(steady, 0.92), 0.05, true, verdictWorse},
		{"higher and up", steady, shift(steady, 1.08), 0.05, true, verdictBetter},
		{"noise wider than bound", []float64{80, 120, 90, 110, 100}, []float64{85, 125, 95, 115, 105}, 0.05, false, verdictUnresolved},
		{"noisy but separated", []float64{80, 120, 90, 110, 100}, []float64{40, 60, 45, 55, 50}, 0.05, false, verdictBetter},
		{"noisy and separated worse", []float64{80, 120, 90, 110, 100}, []float64{200, 240, 210, 230, 220}, 0.05, false, verdictWorse},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.cur, c.bound, c.higherGood); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPairedVerdict(t *testing.T) {
	// Runs of different seeds differ by far more than the bound; only the
	// run-by-run change counts.
	base := []float64{2100, 2200, 2050, 2150, 2250}
	scaled := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name       string
		cur        []float64
		bound      float64
		higherGood bool
		want       string
	}{
		{"identical, exact", base, 0, false, verdictSame},
		{"any change, exact", scaled(1.000001), 0, false, verdictWorse},
		{"inside bound", scaled(1.015), 0.02, false, verdictSame},
		{"beyond bound", scaled(1.03), 0.02, false, verdictWorse},
		{"better beyond bound", scaled(0.97), 0.02, false, verdictBetter},
		{"higher is better", scaled(0.97), 0.02, true, verdictWorse},
		{"one run changed", []float64{2100, 2200, 2050, 2150, 2700}, 0.02, false, verdictWorse},
	}
	for _, c := range cases {
		if got := pairedVerdict(base, c.cur, c.bound, c.higherGood); got != c.want {
			t.Errorf("%s: paired verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
