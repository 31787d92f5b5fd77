package main

import (
	"fmt"
	"math"
	"math/rand"

	"heroserve/internal/faults"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/queueing"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// spec is one benchmark workload: a fixed deployment (planned from a sample
// that does not depend on the seed) serving a generated open-loop trace.
type spec struct {
	name string

	// The trace: requests chatbot or summarization requests arriving as a
	// Poisson process at rate req/s of simulated time.
	kind     workload.Kind
	poolSeed int64
	requests int
	rate     float64
	// panel is the number of realizations (input seeds) one run replays,
	// each in its own child process.
	panel int

	// The deployment: the planner's choice for this topology, model and SLA
	// given a fixed sample of planQ requests (workload seed planSeed) at
	// arrival rate lambda.
	graph          func() *topology.Graph
	prefillServers int
	model          func() model.Config
	sla            serving.SLA
	planSeed       int64
	planQ          int
	lambda         float64

	// hero selects HeroServe's online policy and load-aware router; false
	// runs the planner's per-stage schemes (serving.PlannedPolicy).
	hero bool
	// telemetry arms metrics, streamed spans, the critical-path collector,
	// the decision ledger and the default SLO rules.
	telemetry bool
	// Background load and faults, all drawn from the seed.
	elephants     int
	elephantBytes int64
	bursts        bool
	faults        func(horizon float64) faults.RandomConfig
	// autoscale hands the decode fleet to the adaptive scale law.
	autoscale bool
}

// The random streams a realization's seed feeds.
const (
	streamOrder      = iota // shuffle of the request pool
	streamArrivals          // Poisson arrival times
	streamElephants         // GPU pairs of the elephant lanes
	streamBurstTrain        // burst times and sizes (BurstTrain also uses this seed + 1)
	streamBurstGPUs         // GPU pairs of the bursts
	streamFaults            // the fault schedule
	numStreams
)

// streamSeed is the seed of one random stream of a realization. It hashes
// the pair with the splitmix64 finalizer into [1, 2^31-3], below math/rand's
// seed modulus, so that streams of the same or different realizations draw
// from unrelated sources (TestStreamSeedsDisjoint).
func streamSeed(realization int64, stream int) int64 {
	x := uint64(realization)*numStreams + uint64(stream) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + int64(x%(1<<31-3))
}

// specs are the benchmark's workloads; README.md gives the reason for each.
var specs = []spec{
	{
		name:     "chat-stress",
		kind:     workload.Chatbot,
		poolSeed: 9,
		requests: 8_000,
		rate:     200,
		panel:    20,
		graph:    topology.Testbed, prefillServers: 2, model: model.OPT13B,
		sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
		planSeed: 1, planQ: 32, lambda: 30,
	},
	{
		name:     "chat-kv-backlog",
		kind:     workload.Chatbot,
		poolSeed: 9,
		requests: 1_500,
		rate:     150,
		panel:    40,
		graph:    topology.Testbed, prefillServers: 2, model: model.OPT13B,
		sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
		planSeed: 9, planQ: 32, lambda: 30,
	},
	{
		name:     "chat-hero-telemetry",
		kind:     workload.Chatbot,
		poolSeed: 9,
		requests: 1_500,
		rate:     20,
		panel:    12,
		graph:    topology.Testbed, prefillServers: 2, model: model.OPT13B,
		sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
		planSeed: 5, planQ: 32, lambda: 20,
		hero: true, telemetry: true,
		elephants: 4, elephantBytes: 512 << 20,
	},
	{
		name:     "summ-pod8-faults",
		kind:     workload.Summarization,
		poolSeed: 11,
		requests: 110,
		rate:     1,
		panel:    10,
		graph:    func() *topology.Graph { return topology.Pod8Tracks(24) }, prefillServers: 12, model: model.OPT66B,
		sla:      serving.SLA{TTFT: 25, TPOT: 0.2},
		planSeed: 11, planQ: 1, lambda: 1,
		hero: true, telemetry: true,
		elephants: 8, elephantBytes: 512 << 20,
		bursts: true, faults: manyShortFaults, autoscale: true,
	},
}

// manyShortFaults spreads the fault load over many short windows, so that
// which links a seed happens to hit matters less than how often links fail.
func manyShortFaults(horizon float64) faults.RandomConfig {
	return faults.RandomConfig{
		LinkFaults:    120,
		SwitchFaults:  8,
		AgentStalls:   8,
		MeanDuration:  horizon / 100,
		DegradeFactor: 0.05,
	}
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run receives that the seed generates. The
// deployment's planner inputs are fixed per workload and sit beside them.
type inputs struct {
	plan          planner.Inputs
	trace         *workload.Trace
	horizon       float64 // arrival span of the trace, simulated seconds
	elephantSeed  int64
	bursts        []workload.Burst
	burstGPUsSeed int64
	faults        *faults.Schedule
}

// size is the trace length of one realization at the given scale.
func (s *spec) size(scale float64) int {
	return int(math.Max(1, math.Round(float64(s.requests)*scale)))
}

// generate builds the workload's inputs for a realization. The request
// lengths are a fixed draw (workload seed poolSeed) that the realization
// shuffles, and it draws the Poisson arrival times, the background traffic
// and the faults. scale shrinks the trace (1 is the benchmark size); the
// planning sample never changes.
func (s *spec) generate(realization int64, scale float64) *inputs {
	seed := func(stream int) int64 { return streamSeed(realization, stream) }
	g := s.graph()
	pre, dec := planner.SplitPoolsByServer(g, s.prefillServers)
	sample := workload.NewGenerator(s.kind, s.planSeed).Generate(s.planQ, 1)
	n := s.size(scale)
	pool := workload.NewGenerator(s.kind, s.poolSeed).Generate(n, s.rate)
	perm := rand.New(rand.NewSource(seed(streamOrder))).Perm(n)
	arrivals := queueing.NewPoisson(s.rate, seed(streamArrivals))
	trace := &workload.Trace{Name: s.name, Requests: make([]workload.Request, n)}
	for i := range trace.Requests {
		r := pool.Requests[perm[i]]
		trace.Requests[i] = workload.Request{ID: i, Arrival: arrivals.Next(), Input: r.Input, Output: r.Output}
	}
	in := &inputs{
		plan: planner.Inputs{
			Model:       s.model(),
			Graph:       g,
			PrefillGPUs: pre,
			DecodeGPUs:  dec,
			Workload:    sample.BatchStats(s.planQ),
			Lambda:      s.lambda,
			SLA:         s.sla,
			Seed:        1,
		},
		trace:         trace,
		horizon:       trace.Duration(),
		elephantSeed:  seed(streamElephants),
		burstGPUsSeed: seed(streamBurstGPUs),
	}
	if s.bursts {
		in.bursts = workload.BurstTrain(seed(streamBurstTrain), in.horizon, 0.5, 8, 256<<20)
	}
	if s.faults != nil {
		sched := faults.RandomSchedule(g, in.horizon, seed(streamFaults), s.faults(in.horizon))
		in.faults = &sched
	}
	return in
}
