package experiments

import (
	"heroserve/internal/core"
	"heroserve/internal/faults"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/workload"
)

// Env is one experiment invocation: its sizing and seed, plus the optional
// telemetry that every serving run of the experiment reports to. A nil Hub
// means a plain run.
type Env struct {
	Scale Scale
	Seed  int64
	// Hub, when non-nil, arms every serving run with the deterministic
	// observability layer under the run's SLA. Metrics accumulate across
	// runs; each run opens a fresh trace process named after its policy.
	// Arming only observes: no system, HeroServe's online scheduler
	// included, reads the hub, so an armed run's figures equal a plain
	// run's.
	Hub *telemetry.Hub
}

// SystemKind indexes the systems table (core.Systems).
type SystemKind uint8

const (
	// HeroServe is the paper's system (hetero INA + online scheduler).
	HeroServe SystemKind = iota
	// DistServeK is the ring-only baseline.
	DistServeK
	// DSATPK is the asynchronous-INA baseline.
	DSATPK
	// DSSwitchMLK is the synchronous-INA baseline.
	DSSwitchMLK
)

// AllSystems lists the systems in the paper's reporting order.
var AllSystems = []SystemKind{HeroServe, DistServeK, DSATPK, DSSwitchMLK}

// system is k's row of the systems table.
func (k SystemKind) system() core.System { return core.Systems[k] }

func (k SystemKind) String() string { return k.system().Display }

// runConfig is one serving run's parameters.
type runConfig struct {
	kind     SystemKind
	in       planner.Inputs
	plan     *planner.Plan
	workload workload.Kind
	requests int
	rate     float64 // total requests/second
	seed     int64
	bursts   []workload.Burst
	// Sustained background load: elephant lanes of elephantBytes each, for
	// elephantHorizon simulated seconds.
	elephants       int
	elephantBytes   int64
	elephantHorizon float64
	// faults, when non-nil, arms a fault schedule on the run.
	faults *faults.Schedule
}

// requestsFor sizes a trace to cover roughly horizon seconds of arrivals at
// the given rate, with a floor so attainment statistics stay meaningful.
func requestsFor(rate, horizon float64, minReqs int) int {
	n := int(rate * horizon)
	if n < minReqs {
		n = minReqs
	}
	return n
}

// simulate is the one path by which the package runs a serving simulation:
// it arms e.Hub under sla, builds the system through build (which also
// injects the run's background load) and replays trace.
func (e Env) simulate(sla serving.SLA, opts serving.Options, build func(serving.Options) (*serving.System, error), trace *workload.Trace) (*serving.Results, error) {
	if e.Hub != nil {
		opts.Telemetry = e.Hub
		opts.SLA = &sla
	}
	sys, err := build(opts)
	if err != nil {
		return nil, err
	}
	return sys.Run(trace), nil
}

// runOnce executes one configured serving simulation of cfg.kind.
func (e Env) runOnce(cfg runConfig) (*serving.Results, error) {
	trace := workload.NewGenerator(cfg.workload, cfg.seed).Generate(cfg.requests, cfg.rate)
	return e.simulate(cfg.in.SLA, serving.Options{Faults: cfg.faults}, func(opts serving.Options) (*serving.System, error) {
		sys, err := cfg.kind.system().Build(cfg.in, cfg.plan, opts)
		if err != nil {
			return nil, err
		}
		if len(cfg.bursts) > 0 {
			sys.InjectBursts(cfg.bursts, cfg.seed+101)
		}
		if cfg.elephants > 0 {
			sys.InjectElephants(cfg.elephants, cfg.elephantBytes, cfg.elephantHorizon, cfg.seed+211)
		}
		return sys, nil
	}, trace)
}

// ratePoint is one point of a scalability sweep.
type ratePoint struct {
	perGPURate float64
	attainment float64
	meanTTFT   float64
	meanTPOT   float64
}

// rateSweep is one workload's scalability sweep (Fig. 7 and Fig. 8): its
// SLA, the per-GPU rates, the request floor of each point's trace and the
// arrival horizon each point's trace covers.
type rateSweep struct {
	kind    workload.Kind
	sla     serving.SLA
	rates   []float64
	reqs    int
	horizon float64
}

// refRate is the per-GPU rate of the figure's latency panel.
func (w rateSweep) refRate() float64 { return w.rates[len(w.rates)/3] }

// sweepSystem runs cfg.kind, with cfg's planner inputs and background load,
// across the per-GPU rates of w (total rate = perGPU * gpus) on w's workload
// and the experiment seed. It returns the points, the latencies at the
// reference rate, and the maximum per-GPU rate whose SLA attainment is >=
// goodputTarget (0 when none qualifies) — the paper's scalability metric
// ("the maximum per-GPU rate the system can handle while satisfying the
// latency requirements for over 90% of requests").
//
// The offline planner takes the arrival rate as an input (Table I), so each
// offered rate is re-planned with the planner's lambda set to it. When the
// offered load exceeds every candidate's analytic capacity, the planner
// deploys its best configuration for a backed-off lambda (a real deployment
// does not refuse traffic; it saturates), and the simulation decides the
// attainment.
func (e Env) sweepSystem(w rateSweep, cfg runConfig, gpus int) (Fig7SystemResult, error) {
	sr := Fig7SystemResult{System: cfg.kind}
	cfg.workload, cfg.seed = w.kind, e.Seed
	for _, r := range w.rates {
		run := cfg
		run.rate = r * float64(gpus)
		run.requests = requestsFor(run.rate, w.horizon, w.reqs)
		plan, err := planAtBestLambda(run.kind, run.in, run.rate)
		if err != nil {
			// No deployment satisfies the SLAs at any load level.
			sr.Points = append(sr.Points, ratePoint{perGPURate: r})
			continue
		}
		run.plan = plan
		res, err := e.runOnce(run)
		if err != nil {
			return sr, err
		}
		pt := ratePoint{
			perGPURate: r,
			attainment: res.Attainment(w.sla),
			meanTTFT:   mean(res.TTFTs()),
			meanTPOT:   meanPositive(res.TPOTs()),
		}
		if r == w.refRate() {
			sr.RefTTFT, sr.RefTPOT = pt.meanTTFT, pt.meanTPOT
		}
		sr.Points = append(sr.Points, pt)
	}
	// The scalability metric: the largest rate still attaining the target,
	// refined by linear interpolation toward the first failing neighbour so
	// small between-system differences survive a coarse grid.
	for i, p := range sr.Points {
		if p.attainment < goodputTarget {
			continue
		}
		sr.MaxPerGPURate = p.perGPURate
		if i+1 < len(sr.Points) && sr.Points[i+1].attainment < goodputTarget {
			a0, a1 := p.attainment, sr.Points[i+1].attainment
			frac := (a0 - goodputTarget) / (a0 - a1)
			sr.MaxPerGPURate = p.perGPURate + frac*(sr.Points[i+1].perGPURate-p.perGPURate)
		}
	}
	return sr, nil
}

// planAtBestLambda plans for the offered rate, backing the planner's lambda
// off geometrically when the offered load exceeds every candidate's
// capacity (the planner then returns its highest-capacity feasible
// deployment for the reduced load).
func planAtBestLambda(kind SystemKind, in planner.Inputs, rate float64) (*planner.Plan, error) {
	var lastErr error
	for _, f := range []float64{1, 0.8, 0.6, 0.45, 0.3, 0.2} {
		in.Lambda = rate * f
		plan, err := kind.system().Plan(in)
		if err == nil {
			return plan, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanPositive averages only positive samples (single-token requests have
// TPOT 0 and would dilute the decode-latency signal).
func meanPositive(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
