package experiments

import (
	"fmt"

	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// goodputTarget is the paper's SLA-attainment bar for the scalability
// metric: the maximum per-GPU rate with >= 90% of requests inside the SLA.
const goodputTarget = 0.9

// Fig7SystemResult is one system's line in Fig. 7.
type Fig7SystemResult struct {
	System SystemKind
	// MaxPerGPURate is the scalability metric (requests/s/GPU at >= 90%
	// attainment).
	MaxPerGPURate float64
	// RefTTFT / RefTPOT are the mean latencies at the shared reference rate.
	RefTTFT float64
	RefTPOT float64
	Points  []ratePoint
}

// Fig7Workload is one panel pair of Fig. 7 (chatbot: a+b; summarization:
// c+d).
type Fig7Workload struct {
	Workload workload.Kind
	SLA      serving.SLA
	RefRate  float64 // per-GPU reference rate for the latency panel
	Systems  []Fig7SystemResult
}

// deployment is one of §V's serving deployments: the model served and the
// decode tensor-parallel floor, which puts decode in the paper's
// cross-server regime.
type deployment struct {
	model         func() model.Config
	minTensDecode int
}

var (
	// testbedOPT66B is Fig. 7's deployment: decode spans two 4-GPU servers.
	testbedOPT66B = deployment{model.OPT66B, 8}
	// podOPT175B is Fig. 8's deployment: decode spans two 8-GPU servers.
	podOPT175B = deployment{model.OPT175B, 16}
)

// inputs builds the deployment's planner inputs on g: the first half of the
// servers prefill and the second half decode (on the testbed, the A100
// servers prefill and the V100 servers decode). The planner batch
// statistics reflect each workload's realistic prefill batch (chatbot packs
// ~32 prompts under the token budget; summarization prompts fill a whole
// batch alone).
func (d deployment) inputs(g *topology.Graph, kind workload.Kind, sla serving.SLA, lambda float64, seed int64) planner.Inputs {
	pre, dec := planner.SplitPoolsByServer(g, g.NumServers()/2)
	trace := workload.NewGenerator(kind, seed).Generate(512, 1)
	q := 32
	if kind == workload.Summarization {
		q = 1
	}
	return planner.Inputs{
		Model:         d.model(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(q),
		Lambda:        lambda,
		SLA:           sla,
		MinTensDecode: d.minTensDecode,
		Seed:          seed,
	}
}

// fig7Bursts builds the testbed's background traffic (the replayer server's
// bursty load, §V): without it every system sees an idle fabric and the
// congestion mechanisms under study never engage.
func fig7Bursts(seed int64, horizon float64) []workload.Burst {
	return workload.BurstTrain(seed, horizon, 3, 6, 64<<20)
}

// Fig7Data runs the testbed sweeps for both workloads.
func Fig7Data(env Env) ([]Fig7Workload, error) {
	wls := []rateSweep{
		{
			kind:    workload.Chatbot,
			sla:     serving.SLA{TTFT: 2.5, TPOT: 0.15},
			rates:   []float64{0.10, 0.15, 0.19, 0.23, 0.27, 0.31, 0.36, 0.42},
			reqs:    24,
			horizon: 20,
		},
		{
			kind:    workload.Summarization,
			sla:     serving.SLA{TTFT: 15, TPOT: 0.15},
			rates:   []float64{0.004, 0.006, 0.008, 0.0105, 0.0135, 0.017},
			reqs:    12,
			horizon: 250,
		},
	}
	if env.Scale == Full {
		for i := range wls {
			wls[i].reqs *= 3
			wls[i].horizon *= 3
		}
	}

	var out []Fig7Workload
	for _, w := range wls {
		gpus := 16 // the testbed's GPU count
		fw := Fig7Workload{Workload: w.kind, SLA: w.sla, RefRate: w.refRate()}
		for _, sysKind := range AllSystems {
			// Background load spans the longest sweep horizon (the
			// lowest-rate run's trace plus drain time): bursty flows plus
			// sustained elephant transfers from the traffic replayer.
			burstHorizon := float64(w.reqs)/(w.rates[0]*float64(gpus)) + 3*w.horizon
			sr, err := env.sweepSystem(w, runConfig{
				kind:            sysKind,
				in:              testbedOPT66B.inputs(topology.Testbed(), w.kind, w.sla, w.refRate()*float64(gpus), env.Seed),
				bursts:          fig7Bursts(env.Seed+int64(sysKind), burstHorizon),
				elephants:       4,
				elephantBytes:   512 << 20,
				elephantHorizon: burstHorizon,
			}, gpus)
			if err != nil {
				return nil, fmt.Errorf("fig7 sweep %v %v: %w", w.kind, sysKind, err)
			}
			fw.Systems = append(fw.Systems, sr)
		}
		out = append(out, fw)
	}
	return out, nil
}

// Fig7 renders the testbed evaluation.
func Fig7(env Env) (*Report, error) {
	data, err := Fig7Data(env)
	if err != nil {
		return nil, err
	}
	return Fig7Render(data), nil
}

// Fig7Render builds the report from already-computed sweep data.
func Fig7Render(data []Fig7Workload) *Report {
	r := &Report{Name: "Fig. 7 — Testbed scalability and latency, OPT-66B"}
	for _, w := range data {
		addSweepTables(r, w.Systems, true,
			fmt.Sprintf("%s (SLA: TTFT %gs, TPOT %gs; latency at %.3g req/s/GPU)", w.Workload, w.SLA.TTFT, w.SLA.TPOT, w.RefRate),
			fmt.Sprintf("%s SLA attainment vs per-GPU rate", w.Workload))
	}
	r.AddNote("paper: HeroServe scalability 1.53x/1.42x/1.33x (chatbot) and 1.68x/1.58x/1.35x (summarization) over DistServe/DS-ATP/DS-SwitchML; TPOT reduced 18.6-49.2%%")
	return r
}

// addSweepTables adds a rate sweep's two tables to r. The first, titled
// title, lists each system's max per-GPU rate, its gain over DistServe's
// and its mean latencies at the reference rate: TPOT, and TTFT before it
// when ttft is set. The second, titled attainTitle, lists each system's SLA
// attainment at every swept rate.
func addSweepTables(r *Report, systems []Fig7SystemResult, ttft bool, title, attainTitle string) {
	cols := []string{"system", "max rate (req/s/GPU)", "vs DistServe"}
	if ttft {
		cols = append(cols, "mean TTFT (s)")
	}
	t := r.AddTable(title, append(cols, "mean TPOT (s)")...)
	var distRate float64
	for _, s := range systems {
		if s.System == DistServeK {
			distRate = s.MaxPerGPURate
		}
	}
	for _, s := range systems {
		speedup := "-"
		if distRate > 0 {
			speedup = fmt.Sprintf("%.2fx", s.MaxPerGPURate/distRate)
		}
		row := []string{s.System.String(), fmtF(s.MaxPerGPURate), speedup}
		if ttft {
			row = append(row, fmtF(s.RefTTFT))
		}
		t.AddRow(append(row, fmtF(s.RefTPOT))...)
	}
	rates := []string{"system"}
	for _, p := range systems[0].Points {
		rates = append(rates, fmt.Sprintf("%.3g", p.perGPURate))
	}
	c := r.AddTable(attainTitle, rates...)
	for _, s := range systems {
		row := []string{s.System.String()}
		for _, p := range s.Points {
			row = append(row, fmtPct(p.attainment))
		}
		c.AddRow(row...)
	}
}
