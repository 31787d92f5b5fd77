package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/topology"
)

// traceRep runs one realization with every probe armed and fills in its
// per-layer metrics. With telemetry on, the spans stream through a counting
// writer into spansPath, which is replayed through critpath.FromTrace and
// then removed. bench.* and telemetry.tax_frac need other runs and are
// added by the caller.
func (s *spec) traceRep(seed int64, scale float64, tel bool, spansPath string) (*rep, error) {
	pr := &probes{sampler: perf.NewSampler(0)}
	var spans io.Writer
	if tel {
		f, err := os.Create(spansPath)
		if err != nil {
			return nil, err
		}
		defer os.Remove(spansPath)
		defer f.Close()
		pr.spans = &countingWriter{w: f}
		spans = pr.spans
	}
	r, a, res, err := s.execRep(seed, scale, tel, spans, pr)
	if err != nil {
		return nil, err
	}
	var replayS float64
	if tel {
		replayS, err = replay(spansPath)
		if err != nil {
			return nil, err
		}
	}
	r.Layers = layerMetrics(a, res, pr, r, replayS)
	return r, nil
}

// replay times the offline critical-path analysis of a span file.
func replay(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t := time.Now()
	a, err := critpath.FromTrace(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return 0, fmt.Errorf("critpath replay: %w", err)
	}
	if len(a.Finalized()) == 0 {
		return 0, fmt.Errorf("critpath replay: no request finalized")
	}
	return time.Since(t).Seconds(), nil
}

// layerMetrics derives the per-layer metrics of a traced run, named after
// the modules that do the work.
func layerMetrics(a *assembled, res *serving.Results, pr *probes, r *rep, replayS float64) map[string]float64 {
	rep := pr.sampler.Report("")
	eng := a.sys.Engine()
	q := eng.QueueStats()
	reqs := float64(r.Served)
	events := float64(eng.Processed())
	c := res.Comm
	m := map[string]float64{
		"sim.events_per_req":    events / reqs,
		"sim.events_per_s":      events / r.RunS,
		"sim.cancels_per_event": float64(q.Cancelled) / events,
		"sim.peak_live_events":  float64(rep.Queue.PeakLive),
		"sim.peak_tombstones":   float64(rep.Queue.PeakTombstones),
		"sim.compactions":       float64(q.Compactions),
		"sim.engine_s":          r.RunS - pr.events.elapsed.Seconds(),

		"netsim.reallocs_per_req":            float64(rep.Netsim.Reallocs) / reqs,
		"netsim.mean_component_flows":        rep.Netsim.MeanCompFlows,
		"netsim.max_component_flows":         float64(rep.Netsim.MaxCompFlows),
		"netsim.peak_active_flows":           float64(pr.router.peakActive),
		"netsim.waterfill_s":                 rep.Phases.ReallocSeconds,
		"collective.allreduce_calls_per_req": float64(pr.policy.calls) / reqs,
		"collective.allreduce_launch_s":      pr.policy.elapsed.Seconds(),
		"collective.route_calls_per_req":     float64(pr.router.calls) / reqs,
		"collective.route_s":                 pr.router.elapsed.Seconds(),
		"collective.ring_ops":                float64(c.RingOps),
		"collective.ina_ops":                 float64(c.INASyncOps + c.INAAsyncOps),
		"collective.hetero_ops":              float64(c.HeteroOps),
		"collective.slot_fallbacks":          float64(c.SlotFallbacks),
		"collective.fault_fallbacks":         float64(c.FaultFallbacks),

		"scheduler.select_ns": selectNanos(),
		"scheduler.tables":    0,

		"serving.build_s":      pr.buildS,
		"serving.callback_s":   pr.events.elapsed.Seconds(),
		"serving.kv_util_mean": res.MeanKVUtilization(),
		"serving.kv_util_peak": res.PeakKVUtilization(),
		"planner.plan_s":       pr.planS,

		"telemetry.tax_frac":               0,
		"telemetry.trace_events_per_req":   0,
		"telemetry.trace_bytes_per_req":    0,
		"telemetry.trace_write_frac":       0,
		"telemetry.critpath_replay_frac":   0,
		"telemetry.ledger_records_per_req": 0,

		"autoscale.scale_events": float64(len(res.ScaleEvents)),
		"autoscale.gpu_seconds":  res.ActiveGPUSeconds,
		"faults.injected":        0,

		"bench.trace_overhead_frac": 0,
		"bench.sampler_self_frac":   rep.Phases.SelfFraction,
	}
	if a.online != nil {
		m["scheduler.tables"] = float64(a.online.Tables())
	}
	if a.hub != nil {
		m["telemetry.trace_events_per_req"] = float64(a.hub.Trace.Len()) / reqs
		m["telemetry.trace_bytes_per_req"] = float64(pr.spans.bytes) / reqs
		m["telemetry.trace_write_frac"] = pr.spans.elapsed.Seconds() / r.RunS
		m["telemetry.critpath_replay_frac"] = replayS / r.RunS
		m["telemetry.ledger_records_per_req"] = float64(a.sys.DecisionLedger().Len()) / reqs
	}
	if inj := a.sys.FaultInjector(); inj != nil {
		m["faults.injected"] = float64(len(inj.Records()))
	}
	return m
}

// selectNanos is the median cost of one Table.SelectBiased call on the
// policy table of a testbed decode group (a V100 server's four GPUs), the
// table HeroServe's online policy consults on every all-reduce.
func selectNanos() float64 {
	g := topology.Testbed()
	group := g.ServerGPUs(2)
	const stepBytes = 1 << 20
	t := scheduler.NewTable(g, group,
		scheduler.BuildPolicies(g, collective.NewStaticRouter(g), group, stepBytes, 1, true),
		scheduler.DefaultConfig())
	const batch, batches = 20_000, 9
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			t.SelectBiased(stepBytes, nil)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / batch
	}
	return median(per)
}
