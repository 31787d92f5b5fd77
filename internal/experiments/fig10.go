package experiments

import (
	"fmt"

	"heroserve/internal/serving"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// Fig10System is one system's memory-efficiency outcome.
type Fig10System struct {
	System   SystemKind
	MeanUtil float64
	PeakUtil float64
	Series   []float64 // resampled KV utilization over time
}

// Fig10Track is one track-setting panel.
type Fig10Track struct {
	Tracks  int
	Systems []Fig10System
}

// fig10SeriesPoints is the resampled width of the reported utilization
// curves.
const fig10SeriesPoints = 16

// Fig10Data measures decode-cluster KV-cache memory utilization over time
// for the summarization workload on OPT-175B pods (the paper fixes the rate
// at 0.07 req/s on its 9600-GPU cluster; we scale the rate to our pod so
// the offered load sits in the same moderate-utilization regime). Faster
// communication drains KV caches sooner, so the fastest system holds the
// least memory.
func Fig10Data(env Env) ([]Fig10Track, error) {
	requests := 16
	if env.Scale == Full {
		requests = 40
	}
	var out []Fig10Track
	for _, b := range []struct {
		tracks int
		build  func(int) *topology.Graph
	}{{2, topology.Pod2Tracks}, {8, topology.Pod8Tracks}} {
		ft := Fig10Track{Tracks: b.tracks}
		for _, sysKind := range AllSystems {
			g := b.build(fig8Servers)
			gpus := len(g.GPUs())
			sla := serving.SLA{TTFT: 25, TPOT: 0.2}
			rate := 0.006 * float64(gpus) // moderate load, cf. paper's 0.07 req/s regime
			in := fig8Inputs(g, workload.Summarization, sla, rate, env.Seed)
			plan, err := planFor(sysKind, in)
			if err != nil {
				return nil, fmt.Errorf("fig10 %dtracks %v: %w", b.tracks, sysKind, err)
			}
			res, err := env.runOnce(runConfig{
				kind:            sysKind,
				in:              in,
				plan:            plan,
				workload:        workload.Summarization,
				requests:        requests,
				rate:            rate,
				seed:            env.Seed,
				elephants:       8,
				elephantBytes:   1 << 30,
				elephantHorizon: float64(requests)/rate + 60,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 run %dtracks %v: %w", b.tracks, sysKind, err)
			}
			fs := Fig10System{
				System:   sysKind,
				MeanUtil: res.MeanKVUtilization(),
				PeakUtil: res.PeakKVUtilization(),
			}
			if len(res.KVUtilization) > 0 {
				// Aggregate instances by averaging their resampled curves.
				agg := make([]float64, fig10SeriesPoints)
				n := 0
				for i := range res.KVUtilization {
					rs := res.KVUtilization[i].Resample(fig10SeriesPoints)
					if rs == nil {
						continue
					}
					for j, v := range rs {
						agg[j] += v
					}
					n++
				}
				if n > 0 {
					for j := range agg {
						agg[j] /= float64(n)
					}
					fs.Series = agg
				}
			}
			ft.Systems = append(ft.Systems, fs)
		}
		out = append(out, ft)
	}
	return out, nil
}

// Fig10 renders the memory-efficiency comparison.
func Fig10(env Env) (*Report, error) {
	data, err := Fig10Data(env)
	if err != nil {
		return nil, err
	}
	return Fig10Render(data), nil
}

// Fig10Render builds the report from already-computed runs.
func Fig10Render(data []Fig10Track) *Report {
	r := &Report{Name: "Fig. 10 — KV-cache memory efficiency, summarization, OPT-175B"}
	for _, ft := range data {
		t := r.AddTable(fmt.Sprintf("%dtracks: decode KV utilization", ft.Tracks),
			"system", "mean util", "peak util", "utilization over time (scaled to panel peak)")
		peak := 0.0
		for _, s := range ft.Systems {
			for _, v := range s.Series {
				if v > peak {
					peak = v
				}
			}
		}
		for _, s := range ft.Systems {
			spark := ""
			for _, v := range s.Series {
				scaled := v
				if peak > 0 {
					scaled = v / peak
				}
				spark += sparkChar(scaled)
			}
			t.AddRow(s.System.String(), fmtPct(s.MeanUtil), fmtPct(s.PeakUtil), spark)
		}
	}
	r.AddNote("paper: HeroServe consistently maintains the lowest memory utilization in both track settings — faster synchronization refreshes KV caches more frequently")
	return r
}

// sparkChar maps a utilization value to a sparkline glyph.
func sparkChar(v float64) string {
	levels := []string{" ", ".", ":", "-", "=", "+", "*", "#"}
	idx := int(v * float64(len(levels)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	return levels[idx]
}
