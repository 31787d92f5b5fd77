package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the average of xs, NaN for none.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4). With one value both are
// that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// supportedPercentile returns the highest of p50, p90, p99 and p99.9 that
// leaves at least ten of n samples beyond it, or 0 when even the median
// does not.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// Verdicts of a comparison between a base and a new set of runs.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares the new runs of one metric with the base runs. bound is
// the share of the base median by which the metric may worsen. A change
// beyond the bound is worse. A gain is better only when the medians differ
// by more than the base's own spread and the new runs win at least nine
// tenths of all (base, new) pairs, ties counting for neither; anything
// else within the bound is same. When either side's spread is wider than
// the bound the answer is unresolved, unless every new run beats (or loses
// to) every base run.
func verdict(base, cur []float64, bound float64, higherIsBetter bool) string {
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	// worse > 0 means the new median is worse than the base median.
	bm := median(base)
	worse := sign * (median(cur) - bm) / math.Abs(bm)
	if spread(base) > bound || spread(cur) > bound {
		switch {
		case separated(cur, base, sign):
			return verdictBetter
		case separated(base, cur, sign):
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worse > bound:
		return verdictWorse
	case -worse > spread(base) && winShare(cur, base, sign) >= 0.9:
		return verdictBetter
	}
	return verdictSame
}

// winShare is the share of all pairs (a[i], b[j]) in which a's run is
// better; sign is -1 when higher is better.
func winShare(a, b []float64, sign float64) float64 {
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if sign*x < sign*y {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(a)*len(b))
}

// pairedVerdict compares runs that replayed the same inputs, run i of cur
// with run i of base. Such runs differ only by the code, so there is no
// noise to allow for: the mean of the runs' changes is held against the
// bound, and a bound of 0 flags any change.
func pairedVerdict(base, cur []float64, bound float64, higherIsBetter bool) string {
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	worse := make([]float64, len(base))
	for i := range base {
		worse[i] = sign * (cur[i] - base[i]) / math.Abs(base[i])
	}
	switch m := mean(worse); {
	case m > bound:
		return verdictWorse
	case m < -bound:
		return verdictBetter
	}
	return verdictSame
}

// separated reports whether every value of a is better than every value of
// b; sign is -1 when higher is better.
func separated(a, b []float64, sign float64) bool {
	worstA, bestB := math.Inf(-1), math.Inf(1)
	for _, v := range a {
		worstA = math.Max(worstA, sign*v)
	}
	for _, v := range b {
		bestB = math.Min(bestB, sign*v)
	}
	return worstA < bestB
}
