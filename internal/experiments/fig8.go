package experiments

import (
	"fmt"

	"heroserve/internal/model"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// Fig8Track is one track-setting panel of Fig. 8.
type Fig8Track struct {
	Tracks   int
	Workload workload.Kind
	SLA      serving.SLA
	Systems  []Fig7SystemResult
}

// fig8Servers is the scaled pod size of the Quick configuration. The paper
// simulates 1200 servers; contention ratios (GPUs per uplink, tracks per
// group) are preserved at this scale and absolute size only replicates
// independent pods (see DESIGN.md substitutions).
const fig8Servers = 12

// fig8Inputs builds the OPT-175B pod planner inputs: half the servers
// prefill, half decode, decode spanning two 8-GPU servers (MinTensDecode
// 16 — the cross-server regime at pod scale).
func fig8Inputs(g *topology.Graph, kind workload.Kind, sla serving.SLA, lambda float64, seed int64) planner.Inputs {
	pre, dec := planner.SplitPoolsByServer(g, g.NumServers()/2)
	trace := workload.NewGenerator(kind, seed).Generate(512, 1)
	q := 32
	if kind == workload.Summarization {
		q = 1
	}
	return planner.Inputs{
		Model:         model.OPT175B(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      trace.BatchStats(q),
		Lambda:        lambda,
		SLA:           sla,
		MinTensDecode: 16,
		Seed:          seed,
	}
}

// Fig8Data runs the pod-scale sweeps for 2tracks and 8tracks.
func Fig8Data(env Env) ([]Fig8Track, error) {
	wls := []rateSweep{{
		kind:    workload.Chatbot,
		sla:     serving.SLA{TTFT: 4, TPOT: 0.2},
		rates:   []float64{0.03, 0.05, 0.072, 0.09, 0.097, 0.104, 0.112, 0.12},
		reqs:    16,
		horizon: 25,
	}}
	if env.Scale == Full {
		wls = append(wls, rateSweep{
			kind:    workload.Summarization,
			sla:     serving.SLA{TTFT: 25, TPOT: 0.2},
			rates:   []float64{0.001, 0.0016, 0.0025, 0.004, 0.006},
			reqs:    12,
			horizon: 300,
		})
		for i := range wls {
			wls[i].reqs *= 2
			wls[i].horizon *= 2
		}
	}

	builders := []struct {
		tracks int
		build  func(int) *topology.Graph
	}{
		{2, topology.Pod2Tracks},
		{8, topology.Pod8Tracks},
	}

	var out []Fig8Track
	for _, w := range wls {
		for _, b := range builders {
			ft := Fig8Track{Tracks: b.tracks, Workload: w.kind, SLA: w.sla}
			for _, sysKind := range AllSystems {
				g := b.build(fig8Servers)
				gpus := len(g.GPUs())
				horizon := float64(w.reqs)/(w.rates[0]*float64(gpus)) + 3*w.horizon
				sr, err := env.sweepSystem(w, runConfig{
					kind:            sysKind,
					in:              fig8Inputs(g, w.kind, w.sla, w.refRate()*float64(gpus), env.Seed),
					elephants:       8,
					elephantBytes:   1 << 30,
					elephantHorizon: horizon,
				}, gpus)
				if err != nil {
					return nil, fmt.Errorf("fig8 sweep %dtracks %v %v: %w", b.tracks, w.kind, sysKind, err)
				}
				ft.Systems = append(ft.Systems, sr)
			}
			out = append(out, ft)
		}
	}
	return out, nil
}

// Fig8 renders the pod-scale evaluation.
func Fig8(env Env) (*Report, error) {
	data, err := Fig8Data(env)
	if err != nil {
		return nil, err
	}
	return Fig8Render(data), nil
}

// Fig8Render builds the report from already-computed sweep data.
func Fig8Render(data []Fig8Track) *Report {
	r := &Report{Name: "Fig. 8 — Simulated scalability, OPT-175B, 2tracks vs 8tracks"}
	for _, ft := range data {
		t := r.AddTable(
			fmt.Sprintf("%dtracks, %s (SLA: TTFT %gs, TPOT %gs)", ft.Tracks, ft.Workload, ft.SLA.TTFT, ft.SLA.TPOT),
			"system", "max rate (req/s/GPU)", "vs DistServe", "mean TPOT (s)")
		var distRate float64
		for _, s := range ft.Systems {
			if s.System == DistServeK {
				distRate = s.MaxPerGPURate
			}
		}
		for _, s := range ft.Systems {
			speedup := "-"
			if distRate > 0 {
				speedup = fmt.Sprintf("%.2fx", s.MaxPerGPURate/distRate)
			}
			t.AddRow(s.System.String(), fmtF(s.MaxPerGPURate), speedup, fmtF(s.RefTPOT))
		}
		c := r.AddTable(fmt.Sprintf("%dtracks %s SLA attainment vs per-GPU rate", ft.Tracks, ft.Workload),
			append([]string{"system"}, rateHeaders(ft.Systems[0].Points)...)...)
		for _, s := range ft.Systems {
			row := []string{s.System.String()}
			for _, p := range s.Points {
				row = append(row, fmtPct(p.attainment))
			}
			c.AddRow(row...)
		}
	}
	r.AddNote("paper: scalability gains 1.12-1.94x (2tracks) and 1.09-1.83x (8tracks); TPOT reduced 28.4-42.1%%; the 2tracks gains exceed 8tracks because scarcer uplinks congest the Ethernet-only schemes more")
	return r
}
