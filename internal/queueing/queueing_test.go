package queueing

import (
	"math"
	"sort"
	"testing"
)

func TestMG1WaitKnownValues(t *testing.T) {
	// M/M/1 special case: E[S^2] = 2/mu^2. W_q = rho/(mu - lambda).
	lambda, mu := 0.5, 1.0
	got := MG1Wait(lambda, 1/mu, 2/(mu*mu))
	want := (lambda / mu) / (mu - lambda)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("M/M/1 wait = %g, want %g", got, want)
	}
	// M/D/1 special case: E[S^2] = s^2; W = lambda s^2 / (2(1-rho)).
	s := 2.0
	got = MG1Wait(0.25, s, s*s)
	want = 0.25 * 4 / (2 * 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("M/D/1 wait = %g, want %g", got, want)
	}
}

func TestMG1Unstable(t *testing.T) {
	if !math.IsInf(MG1Wait(1, 1, 1), 1) {
		t.Error("rho = 1 should be unstable")
	}
	if !math.IsInf(MG1Wait(2, 1, 1), 1) {
		t.Error("rho > 1 should be unstable")
	}
}

func TestMG1NegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MG1Wait(-1, 1, 1)
}

func TestPaperQueueMatchesPK(t *testing.T) {
	if got, want := PaperQueue(0.3, 1.5), MG1Wait(0.3, 1.5, 2.25); got != want {
		t.Errorf("PaperQueue = %g, want %g", got, want)
	}
	// Monotone in load: heavier load waits longer.
	if PaperQueue(0.5, 1) <= PaperQueue(0.2, 1) {
		t.Error("queue wait should grow with arrival rate")
	}
}

// arrivals returns the first n arrival times of p.
func arrivals(p *Poisson, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

func TestPoissonStatistics(t *testing.T) {
	const rate = 10.0
	p := NewPoisson(rate, 42)
	n := 20000
	times := arrivals(p, n)
	if !sort.Float64sAreSorted(times) {
		t.Fatal("arrival times not increasing")
	}
	// Mean interarrival ~ 1/rate.
	mean := times[n-1] / float64(n)
	if math.Abs(mean-1/rate) > 0.01/rate*5 {
		t.Errorf("mean interarrival = %g, want ~%g", mean, 1/rate)
	}
	// Interarrival CV ~ 1 (exponential).
	var sq float64
	prev := 0.0
	for _, x := range times {
		d := x - prev
		sq += d * d
		prev = x
	}
	varApprox := sq/float64(n) - mean*mean
	cv := math.Sqrt(varApprox) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("interarrival CV = %g, want ~1", cv)
	}
}

func TestPoissonDeterministicBySeed(t *testing.T) {
	a := arrivals(NewPoisson(5, 7), 100)
	b := arrivals(NewPoisson(5, 7), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different processes")
		}
	}
	c := arrivals(NewPoisson(5, 8), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical processes")
	}
}

func TestPoissonBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewPoisson(0, 1)
}
