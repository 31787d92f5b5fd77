package experiments

import (
	"heroserve/internal/collective"
	"heroserve/internal/model"
	"heroserve/internal/topology"
)

// Fig1Point is one bar of Fig. 1: the prefill latency breakdown of
// LLaMA-3-70B under cross-server tensor parallelism.
type Fig1Point struct {
	GPU       string
	ComputeS  float64
	CommS     float64
	CommShare float64
}

// Fig1Data computes the Fig. 1 breakdown: LLaMA-3-70B, TP=4 across four GPU
// servers over 100 Gb/s Ethernet, batch 8 x 1024 input tokens, NCCL ring
// all-reduce, on L40 and A100. The paper measures the all-reduce share at
// over 65% (L40) and over 75% (A100).
func Fig1Data() []Fig1Point {
	cfg := model.LLaMA3_70B()
	const (
		batch  = 8
		perReq = 1024
		kin    = batch * perReq
		kin2   = batch * perReq * perReq
		tp     = 4
	)

	// Cross-server TP: one GPU per server, each with a dedicated 100 GbE
	// uplink to a shared switch (the Fig. 1 measurement setup).
	g := topology.NewGraph()
	sw := g.AddNode(topology.Node{Kind: topology.KindAccessSwitch, INASlots: topology.DefaultINASlots})
	var gpus []topology.NodeID
	for s := 0; s < tp; s++ {
		id := g.AddNode(topology.Node{Kind: topology.KindGPU, Server: s, GPUType: "A100"})
		g.AddEdge(id, sw, topology.LinkEthernet, topology.Ethernet100G, topology.EthernetHopLatency)
		gpus = append(gpus, id)
	}
	router := collective.NewStaticRouter(g)

	// Two all-reduces per layer of K_in*h FP16 activations (§III-C2).
	msg := cfg.SyncBytes(kin)
	steps := cfg.SyncStepsPerPass()
	commPerStep := collective.RingStepTime(g, router, collective.NewGroup(g, gpus), msg)
	comm := float64(steps) * commPerStep

	var out []Fig1Point
	for _, spec := range []model.GPUSpec{model.L40(), model.A100()} {
		compute := spec.MeasurePrefill(cfg, kin, kin2, tp)
		out = append(out, Fig1Point{
			GPU:       spec.Name,
			ComputeS:  compute,
			CommS:     comm,
			CommShare: comm / (comm + compute),
		})
	}
	return out
}

// Fig1 renders the breakdown as a report. The breakdown is analytic, so
// the environment is unused.
func Fig1(Env) (*Report, error) {
	r := &Report{Name: "Fig. 1 — Prefill cost breakdown, LLaMA-3-70B, TP=4 over 100GbE (ring all-reduce)"}
	t := r.AddTable("prefill breakdown (batch 8 x 1024 input tokens)",
		"GPU", "compute (s)", "all-reduce (s)", "comm share")
	for _, p := range Fig1Data() {
		t.AddRow(p.GPU, fmtF(p.ComputeS), fmtF(p.CommS), fmtPct(p.CommShare))
	}
	r.AddNote("paper reports the all-reduce share above 65%% on L40 and above 75%% on A100 (its larger FLOPS shrink compute, not communication)")
	return r, nil
}
