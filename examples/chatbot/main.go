// Chatbot: the paper's testbed scenario — OPT-66B serving a ShareGPT-like
// conversational workload (SLA: 2.5 s TTFT, 0.15 s TPOT) in the cross-server
// decode regime, comparing HeroServe against the DistServe baseline under
// background traffic. Expect HeroServe to sustain lower TPOT and higher SLA
// attainment at the same offered rate.
package main

import (
	"fmt"
	"log"

	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/stats"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

const (
	perGPURate = 0.25 // req/s/GPU, near DistServe's saturation point
	requests   = 64
)

func inputs(g *topology.Graph, lambda float64) planner.Inputs {
	trace := workload.NewGenerator(workload.Chatbot, 7).Generate(512, 1)
	return core.DefaultInputs(g, 2, planner.Inputs{
		Model:         model.OPT66B(),
		Workload:      trace.BatchStats(32),
		Lambda:        lambda,
		SLA:           serving.SLA{TTFT: 2.5, TPOT: 0.15},
		MinTensDecode: 8, // the paper's cross-server regime
		Seed:          7,
	})
}

func run(name string) {
	s, err := core.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	g := topology.Testbed()
	lambda := perGPURate * float64(len(g.GPUs()))
	in := inputs(g, lambda)
	plan, err := s.Plan(in)
	if err != nil {
		log.Fatalf("%s: %v", s.Display, err)
	}
	sys, err := s.Build(in, plan, serving.Options{})
	if err != nil {
		log.Fatalf("%s: %v", s.Display, err)
	}
	sys.InjectElephants(4, 512<<20, 120, 99)
	trace := workload.NewGenerator(workload.Chatbot, 7).Generate(requests, lambda)
	res := sys.Run(trace)
	sla := serving.SLA{TTFT: 2.5, TPOT: 0.15}
	fmt.Printf("%-12s attainment %5.1f%%  TTFT %.3fs  TPOT %.4fs  (ring=%d ina=%d hetero=%d)\n",
		s.Display, res.Attainment(sla)*100,
		stats.Mean(res.TTFTs()), stats.Mean(res.TPOTs()),
		res.Comm.RingOps, res.Comm.INASyncOps+res.Comm.INAAsyncOps, res.Comm.HeteroOps)
}

func main() {
	fmt.Printf("OPT-66B chatbot on the Fig. 6 testbed at %.2f req/s/GPU with background traffic\n\n", perGPURate)
	run("heroserve")
	run("distserve")
}
