package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// calibrationRef is the calibration kernel's time, in seconds, on the
// reference host (the 2-core 2.1 GHz VM of README.md) when nothing else
// loads it. Host times are reported in reference-host seconds: a time t
// measured during a run becomes t × calibrationRef / (the kernel's mean
// time over that run).
const calibrationRef = 0.1

// calEvent and calQueue are the kernel's timed events and their binary heap.
type calEvent struct {
	at  float64
	seq int
}

type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSink keeps the kernel's work observable.
var calSink float64

// calibrate times a fixed kernel shaped like the simulator's hot path: a
// binary heap of timed events over a working set of some megabytes, a hash
// map, and short-lived allocations. It is the benchmark's own code, so a
// change to the program does not move it and a change in the host's speed
// does.
func calibrate() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	q := make(calQueue, 0, 100_000)
	for i := 0; i < cap(q); i++ {
		q = append(q, &calEvent{at: 10 * rng.Float64(), seq: i})
	}
	heap.Init(&q)
	sums := make(map[int32]float64, 50_000)
	for n := 0; n < 100_000; n++ {
		e := heap.Pop(&q).(*calEvent)
		sums[rng.Int31n(50_000)] += e.at
		scratch := make([]float64, 8+n%24)
		scratch[n%len(scratch)] = e.at
		calSink += scratch[0]
		heap.Push(&q, &calEvent{at: e.at + rng.ExpFloat64(), seq: cap(q) + n})
	}
	return time.Since(start).Seconds()
}
