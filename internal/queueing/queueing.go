// Package queueing implements the analytical queueing pieces of the paper's
// model (§III-C1): Poisson arrival processes and the M/G/1
// Pollaczek–Khinchine waiting-time formula used to estimate T_queue.
package queueing

import (
	"fmt"
	"math"
	"math/rand"
)

// MG1Wait returns the Pollaczek–Khinchine mean waiting time of an M/G/1
// queue: W = lambda * E[S^2] / (2 * (1 - rho)), with rho = lambda * E[S].
// It returns +Inf for an unstable queue (rho >= 1) and panics on negative
// inputs (always a modelling bug).
func MG1Wait(lambda, meanService, meanServiceSq float64) float64 {
	if lambda < 0 || meanService < 0 || meanServiceSq < 0 {
		panic(fmt.Sprintf("queueing: negative inputs %g %g %g", lambda, meanService, meanServiceSq))
	}
	rho := lambda * meanService
	if rho >= 1 {
		return math.Inf(1)
	}
	return lambda * meanServiceSq / (2 * (1 - rho))
}

// PaperQueue returns the paper's simplified form T_queue =
// lambda*T_serve^2 / (2*(1-rho)): Pollaczek–Khinchine with E[S^2]
// approximated by T_serve^2 (deterministic service, justified by the high
// predictability of LLM inference execution times, §III-C1).
func PaperQueue(lambda, tServe float64) float64 {
	return MG1Wait(lambda, tServe, tServe*tServe)
}

// Poisson generates the arrival times of a homogeneous Poisson process.
type Poisson struct {
	rate float64
	rng  *rand.Rand
	last float64
}

// NewPoisson returns a Poisson process with the given rate (events/second)
// and seed. Rate must be positive.
func NewPoisson(rate float64, seed int64) *Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("queueing: non-positive Poisson rate %g", rate))
	}
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next arrival time (seconds since process start). Arrival
// times are strictly increasing.
func (p *Poisson) Next() float64 {
	p.last += p.rng.ExpFloat64() / p.rate
	return p.last
}
