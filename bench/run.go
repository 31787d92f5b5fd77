package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"heroserve/internal/stats"
)

// metric is one reported number: its name, unit, and which direction is an
// improvement. BENCHMARK.json lists the same tables (a test keeps them
// equal).
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced runs' metrics. sim_* are simulated outcomes,
// deterministic for a seed; the rest are host costs of the replay.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"sim_req_per_s", "req/s", "higher"},
	{"allocs_per_req", "count", "lower"},
	{"bytes_per_req", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_ttft_p50_s", "sim_s", "lower"},
	{"sim_ttft_p99_s", "sim_s", "lower"},
	{"sim_tpot_p99_s", "sim_s", "lower"},
	{"sim_slo_attainment", "ratio", "higher"},
}

// perLayer are the traced run's metrics, named after the modules.
var perLayer = []metric{
	{"sim.events_per_req", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.cancels_per_event", "ratio", "lower"},
	{"sim.peak_live_events", "count", "lower"},
	{"sim.peak_tombstones", "count", "lower"},
	{"sim.compactions", "count", "lower"},
	{"sim.engine_s", "s", "lower"},
	{"netsim.reallocs_per_req", "count", "lower"},
	{"netsim.mean_component_flows", "count", "lower"},
	{"netsim.max_component_flows", "count", "lower"},
	{"netsim.peak_active_flows", "count", "lower"},
	{"netsim.waterfill_s", "s", "lower"},
	{"collective.allreduce_calls_per_req", "count", "lower"},
	{"collective.allreduce_launch_s", "s", "lower"},
	{"collective.route_calls_per_req", "count", "lower"},
	{"collective.route_s", "s", "lower"},
	{"collective.ring_ops", "count", "lower"},
	{"collective.ina_ops", "count", "higher"},
	{"collective.hetero_ops", "count", "higher"},
	{"collective.slot_fallbacks", "count", "lower"},
	{"collective.fault_fallbacks", "count", "lower"},
	{"scheduler.select_ns", "ns", "lower"},
	{"scheduler.tables", "count", "lower"},
	{"serving.build_s", "s", "lower"},
	{"serving.callback_s", "s", "lower"},
	{"serving.kv_util_mean", "ratio", "higher"},
	{"serving.kv_util_peak", "ratio", "lower"},
	{"planner.plan_s", "s", "lower"},
	{"telemetry.tax_frac", "ratio", "lower"},
	{"telemetry.trace_events_per_req", "count", "lower"},
	{"telemetry.trace_bytes_per_req", "B", "lower"},
	{"telemetry.trace_write_frac", "ratio", "lower"},
	{"telemetry.critpath_replay_frac", "ratio", "lower"},
	{"telemetry.ledger_records_per_req", "count", "lower"},
	{"autoscale.scale_events", "count", "lower"},
	{"autoscale.gpu_seconds", "gpu_s", "lower"},
	{"faults.injected", "count", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.sampler_self_frac", "ratio", "lower"},
}

// realization is the input seed of panel member i of a run seeded seed.
func realization(seed int64, i int) int64 { return seed*1000 + int64(i) }

// outcome is one run of one workload.
type outcome struct {
	Workload  string
	Seed      int64
	Reps      int
	Attempted int
	Failed    int
	Correct   bool
	Digest    string
	Metrics   map[string]float64
}

// runner starts child processes of this program.
type runner struct {
	exe     string
	scale   float64
	workdir string    // span files of traced runs
	log     io.Writer // one line per repetition
	// calibrate times one pass of the calibration kernel (tests substitute
	// a constant).
	calibrate func() float64
}

// child runs one repetition in a fresh process (one at a time, waited for)
// and decodes its report.
func (rn *runner) child(s *spec, seed int64, extra ...string) (*rep, error) {
	args := append([]string{"-child", "-workload", s.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(rn.scale, 'g', -1, 64)}, extra...)
	cmd := exec.Command(rn.exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", s.name, seed, err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: decode report: %w", s.name, seed, err)
	}
	return &r, nil
}

// calibrationShare is the calibration kernel's time after each child as a
// share of the child's wall time. One 0.1 s pass scatters by about 11 %
// around the host's speed, so longer children get several passes.
const calibrationShare = 0.2

// measure replays the workload's panel of realizations, one child process
// each, then keeps cycling through the panel for more host-cost samples
// until seconds have passed. Every output is checked, and a realization
// replayed twice must produce the same digest. Between children, in this
// process, the calibration kernel gauges the host's speed over the run.
func (rn *runner) measure(s *spec, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Workload: s.name, Seed: seed, Correct: true}
	first := make([]*rep, s.panel)
	var all []*rep
	var walls []float64
	cal := []float64{rn.calibrate()}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= s.panel && time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
		m := i % s.panel
		t := time.Now()
		o.Attempted += s.size(rn.scale)
		r, err := rn.child(s, realization(seed, m))
		wall := time.Since(t).Seconds()
		// At least one pass, and as many as add up to the share.
		for k := 0.0; k == 0 || k < calibrationShare*wall; {
			c := rn.calibrate()
			cal = append(cal, c)
			k += c
		}
		walls = append(walls, time.Since(t).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			o.Failed += s.size(rn.scale)
			o.Correct = false
			continue
		}
		o.Reps++
		all = append(all, r)
		fmt.Fprintf(rn.log, "%s rep %d seed %d: setup %.5f s, run %.5f s, wall %.5f s, calibration %.5f s, digest %s\n",
			s.name, i, r.Seed, r.SetupS, r.RunS, wall, cal[len(cal)-1], r.Digest)
		switch {
		case first[m] == nil:
			first[m] = r
		case r.Digest != first[m].Digest:
			fmt.Fprintf(os.Stderr, "%s rep %d (seed %d): digest %s, first replay gave %s\n",
				s.name, i, r.Seed, r.Digest, first[m].Digest)
			o.Correct = false
		}
	}
	var panel []*rep
	for _, r := range first {
		if r != nil {
			panel = append(panel, r)
		}
	}
	if len(panel) == 0 {
		return nil, fmt.Errorf("%s: every repetition failed", s.name)
	}
	o.Digest = panelDigest(panel)
	o.Metrics = endToEndMetrics(panel, all, calibrationRef/mean(cal))
	return o, nil
}

// endToEndMetrics reduces a run's repetitions. Simulated percentiles pool
// every request of the panel; allocation counts are panel totals per
// request. Host times become reference-host seconds through toRef, the
// reference kernel time over the run's mean one. The replay rate is all
// requests over all Run time, and set-up time and memory are medians over
// all repetitions.
func endToEndMetrics(panel, all []*rep, toRef float64) map[string]float64 {
	var sent, met int
	var mallocs, allocBytes float64
	var ttft, tpot []float64
	for _, r := range panel {
		sent += r.Sent
		met += r.Met
		mallocs += float64(r.Mallocs)
		allocBytes += float64(r.AllocBytes)
		ttft = append(ttft, r.TTFT...)
		tpot = append(tpot, r.TPOT...)
	}
	var setup, rss []float64
	var served, runS float64
	for _, r := range all {
		setup = append(setup, r.SetupS)
		served += float64(r.Served)
		runS += r.RunS
		rss = append(rss, r.PeakRSSMiB)
	}
	return map[string]float64{
		"setup_s":            median(setup) * toRef,
		"sim_req_per_s":      served / (runS * toRef),
		"allocs_per_req":     mallocs / float64(sent),
		"bytes_per_req":      allocBytes / float64(sent),
		"peak_rss_mb":        median(rss),
		"sim_ttft_p50_s":     stats.Percentile(ttft, 0.50),
		"sim_ttft_p99_s":     stats.Percentile(ttft, 0.99),
		"sim_tpot_p99_s":     stats.Percentile(tpot, 0.99),
		"sim_slo_attainment": float64(met) / float64(sent),
	}
}

// panelDigest combines the realizations' digests in panel order.
func panelDigest(panel []*rep) string {
	h := sha256.New()
	for _, r := range panel {
		h.Write([]byte(r.Digest))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// untracedOverheadReps is how many untraced replays of the traced
// realization give the baseline for bench.trace_overhead_frac.
const untracedOverheadReps = 3

// trace runs the per-layer measurement on the panel's first realization:
// untraced replays for the baseline wall time, the traced replay, and for
// telemetry workloads a telemetry-off twin with the same probes. The traced
// replay must reproduce the untraced digest.
func (rn *runner) trace(s *spec, seed int64) (*outcome, error) {
	r0 := realization(seed, 0)
	o := &outcome{Workload: s.name, Seed: seed, Correct: true}
	var runS []float64
	var want string
	for i := 0; i < untracedOverheadReps; i++ {
		r, err := rn.child(s, r0)
		if err != nil {
			return nil, err
		}
		runS = append(runS, r.RunS)
		if want != "" && r.Digest != want {
			fmt.Fprintf(os.Stderr, "%s untraced replay %d (seed %d): digest %s, first replay gave %s\n", s.name, i, r0, r.Digest, want)
			o.Correct = false
		}
		want = r.Digest
		o.Attempted += r.Sent
		o.Reps++
	}
	if err := os.MkdirAll(rn.workdir, 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(rn.workdir, "spans-"+s.name+".json")
	traced, err := rn.child(s, r0, "-traced", "-spans", spans)
	if err != nil {
		return nil, err
	}
	o.Attempted += traced.Sent
	o.Reps++
	o.Digest = traced.Digest
	if traced.Digest != want {
		fmt.Fprintf(os.Stderr, "%s traced run (seed %d): digest %s, untraced gave %s\n", s.name, r0, traced.Digest, want)
		o.Correct = false
	}
	o.Metrics = traced.Layers
	o.Metrics["bench.trace_overhead_frac"] = traced.RunS/median(runS) - 1
	if s.telemetry {
		twin, err := rn.child(s, r0, "-traced", "-twin")
		if err != nil {
			return nil, err
		}
		o.Attempted += twin.Sent
		o.Reps++
		if twin.Digest != want {
			// Telemetry feeds the control plane here (SLO alerts steer the
			// autoscaler, critical-path shares bias the scheduler), so the
			// twin simulates a slightly different schedule.
			fmt.Fprintf(os.Stderr, "%s: the telemetry-off twin (seed %d) simulates another schedule (digest %s, not %s); telemetry.tax_frac compares unequal work\n",
				s.name, r0, twin.Digest, want)
		}
		o.Metrics["telemetry.tax_frac"] = traced.RunS/twin.RunS - 1
	}
	return o, nil
}

// result is a run's summary object, the last line of standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders an outcome with exactly the metrics of the table.
func report(o *outcome, table []metric) (*result, error) {
	res := &result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: make(map[string]reportedValue, len(table))}
	for _, m := range table {
		v, ok := o.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", o.Workload, m.Name, v)
		}
		res.Metrics[m.Name] = reportedValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}
