// Package serving is the event-driven simulator of the disaggregated LLM
// serving system (paper Fig. 4): prefill instances batch incoming prompts
// and produce first tokens, KV caches migrate to decode instances over the
// network, and decode instances generate tokens with iteration-level
// continuous batching (Orca-style). Tensor-parallel synchronization, pipeline
// activations, and KV transfers all execute on the flow-level network
// simulator through a pluggable communication policy — which is where
// HeroServe and the baselines (DistServe, DS-SwitchML, DS-ATP) differ.
package serving

import (
	"fmt"

	"heroserve/internal/collective"
	"heroserve/internal/faults"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/stats"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
)

// Role distinguishes the two disaggregated clusters.
type Role uint8

const (
	// RolePrefill marks prompt-processing instances (compute-bound).
	RolePrefill Role = iota
	// RoleDecode marks token-generation instances (memory-bound).
	RoleDecode
)

func (r Role) String() string {
	if r == RolePrefill {
		return "prefill"
	}
	return "decode"
}

// InstanceSpec describes one model replica: P_pipe pipeline stages of P_tens
// tensor-parallel GPUs each, with the planner's per-stage aggregation switch
// (V_ina) and communication scheme (alpha/beta) suggestions.
type InstanceSpec struct {
	Role   Role
	Stages [][]topology.NodeID
	// AggSwitch holds, per stage, the planner-chosen aggregation switch
	// (-1 when the stage has no INA option).
	AggSwitch []topology.NodeID
	// Scheme holds the planner's per-stage scheme selection.
	Scheme []collective.Scheme
}

// Ptens returns the tensor-parallel degree.
func (s *InstanceSpec) Ptens() int {
	if len(s.Stages) == 0 {
		return 0
	}
	return len(s.Stages[0])
}

// Ppipe returns the pipeline depth.
func (s *InstanceSpec) Ppipe() int { return len(s.Stages) }

// GPUs returns all GPU node ids of the instance.
func (s *InstanceSpec) GPUs() []topology.NodeID {
	var out []topology.NodeID
	for _, st := range s.Stages {
		out = append(out, st...)
	}
	return out
}

// Validate checks structural sanity: rectangular stages and per-stage
// metadata lengths.
func (s *InstanceSpec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("serving: instance has no stages")
	}
	pt := len(s.Stages[0])
	if pt == 0 {
		return fmt.Errorf("serving: empty stage")
	}
	for i, st := range s.Stages {
		if len(st) != pt {
			return fmt.Errorf("serving: ragged stages: stage %d has %d GPUs, want %d", i, len(st), pt)
		}
	}
	if len(s.AggSwitch) != 0 && len(s.AggSwitch) != len(s.Stages) {
		return fmt.Errorf("serving: AggSwitch length %d != stages %d", len(s.AggSwitch), len(s.Stages))
	}
	if len(s.Scheme) != 0 && len(s.Scheme) != len(s.Stages) {
		return fmt.Errorf("serving: Scheme length %d != stages %d", len(s.Scheme), len(s.Stages))
	}
	return nil
}

// stageSwitch returns the aggregation switch for a stage (-1 if absent).
func (s *InstanceSpec) stageSwitch(i int) topology.NodeID {
	if i < len(s.AggSwitch) {
		return s.AggSwitch[i]
	}
	return -1
}

// stageScheme returns the planned scheme for a stage (ring if absent).
func (s *InstanceSpec) stageScheme(i int) collective.Scheme {
	if i < len(s.Scheme) {
		return s.Scheme[i]
	}
	return collective.SchemeRing
}

// NewInstanceSpec shapes gpus (len must equal ptens*ppipe) into an instance:
// consecutive runs of ptens GPUs become pipeline stages in order. aggSwitch
// (-1 for none) and scheme apply to every stage.
func NewInstanceSpec(role Role, gpus []topology.NodeID, ptens, ppipe int, aggSwitch topology.NodeID, scheme collective.Scheme) (InstanceSpec, error) {
	if ptens <= 0 || ppipe <= 0 {
		return InstanceSpec{}, fmt.Errorf("serving: parallelism %dx%d", ptens, ppipe)
	}
	if len(gpus) != ptens*ppipe {
		return InstanceSpec{}, fmt.Errorf("serving: %d GPUs cannot form %dx%d instance", len(gpus), ptens, ppipe)
	}
	spec := InstanceSpec{Role: role}
	for st := 0; st < ppipe; st++ {
		spec.Stages = append(spec.Stages, append([]topology.NodeID(nil), gpus[st*ptens:(st+1)*ptens]...))
		spec.AggSwitch = append(spec.AggSwitch, aggSwitch)
		spec.Scheme = append(spec.Scheme, scheme)
	}
	return spec, nil
}

// Deployment is a complete serving plan: the model plus prefill and decode
// instances.
type Deployment struct {
	Model   model.Config
	Prefill []InstanceSpec
	Decode  []InstanceSpec
}

// Validate checks the deployment.
func (d *Deployment) Validate() error {
	if len(d.Prefill) == 0 || len(d.Decode) == 0 {
		return fmt.Errorf("serving: deployment needs at least one prefill and one decode instance")
	}
	for i := range d.Prefill {
		if d.Prefill[i].Role != RolePrefill {
			return fmt.Errorf("serving: prefill instance %d has role %v", i, d.Prefill[i].Role)
		}
		if err := d.Prefill[i].Validate(); err != nil {
			return err
		}
	}
	for i := range d.Decode {
		if d.Decode[i].Role != RoleDecode {
			return fmt.Errorf("serving: decode instance %d has role %v", i, d.Decode[i].Role)
		}
		if err := d.Decode[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// GroupID names one tensor-parallel group (a policy-table key for the online
// scheduler).
type GroupID struct {
	Role     Role
	Instance int
	Stage    int
}

// GroupCtx is everything a communication policy needs to run one
// tensor-parallel synchronization phase.
type GroupCtx struct {
	Comm   *collective.Comm
	ID     GroupID
	Group  *collective.Group // the stage's GPUs, prepared once by New
	Switch topology.NodeID   // planner's V_ina suggestion, -1 if none
	Scheme collective.Scheme // planner's alpha/beta suggestion
	// Reqs lists the IDs of the requests in the batch this synchronization
	// serves, in ascending order. Policies thread it onto the collective span
	// ("reqs" arg) so the critical-path analyzer can attribute comm time to
	// requests; empty when telemetry is off. The list is valid only during
	// the AllReduce call: the instance refills it for its next batch.
	Reqs []int
}

// CommPolicy abstracts how a system synchronizes tensor-parallel groups.
// DistServe always rings; DS-SwitchML/DS-ATP run Ethernet INA; HeroServe
// consults its load-aware policy tables.
type CommPolicy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// AllReduce performs the group's synchronization phase: steps logical
	// all-reduce steps of msgBytes each, calling done on completion.
	AllReduce(ctx *GroupCtx, msgBytes int64, steps int, done func())
}

// PlannedPolicy executes exactly the scheme the offline planner selected per
// stage (the alpha/beta outputs of Table II), with no online adaptation. The
// baselines run it over plans whose schemes they rewrote (baselines.Plan).
type PlannedPolicy struct {
	// Label names the policy in experiment output; empty reads "planned".
	Label string
}

// Name implements CommPolicy.
func (p PlannedPolicy) Name() string {
	if p.Label == "" {
		return "planned"
	}
	return p.Label
}

// AllReduce implements CommPolicy.
func (PlannedPolicy) AllReduce(ctx *GroupCtx, msgBytes int64, steps int, done func()) {
	scheme := ctx.Scheme
	if scheme.UsesINA() && ctx.Switch < 0 {
		scheme = collective.SchemeRing
	}
	ctx.Comm.AllReduce(scheme, ctx.Group, ctx.Switch, msgBytes, steps, ctx.Reqs, done)
}

// SLA is the latency service-level agreement of a workload (§V).
type SLA struct {
	TTFT float64 // time-to-first-token bound, seconds
	TPOT float64 // time-per-output-token bound, seconds
}

// Met reports whether a request with these latencies meets both bounds: the
// one verdict behind Results.Attainment, the exported SLA counters and the
// decision ledger's outcomes.
func (s SLA) Met(ttft, tpot float64) bool { return ttft <= s.TTFT && tpot <= s.TPOT }

// maxPrefillTokens caps the token budget of one prefill batch (continuous
// batching with a chunk budget).
const maxPrefillTokens = 8192

// kvSampleEvery is how many decode iterations pass between KV-utilization
// samples.
const kvSampleEvery = 8

// Options tunes the serving simulator.
type Options struct {
	// MaxDecodeBatch caps the number of concurrently decoding requests per
	// instance. Default 64.
	MaxDecodeBatch int
	// Policy is the communication policy. Default PlannedPolicy.
	Policy CommPolicy
	// Autoscale, when non-nil, enables decode-instance scaling in/out (the
	// paper's §VII future-work mechanism).
	Autoscale *AutoscaleConfig
	// RouterFactory, when non-nil, builds the fabric router used for every
	// transfer and collective path (HeroServe installs a load-aware router
	// here; nil uses static capacity-weighted shortest paths).
	RouterFactory func(*netsim.Network) collective.Router
	// Faults, when non-nil, arms the fault schedule on the run's event
	// engine: link degradation, switch slot exhaustion / reboots, and
	// GPU-agent stalls fire at their scheduled times (internal/faults).
	Faults *faults.Schedule
	// Telemetry, when non-nil, arms the deterministic observability layer:
	// New attaches the hub to the run's engine clock and wires metrics and
	// spans through netsim, switchsim, collective, faults, and serving.
	Telemetry *telemetry.Hub
	// SLA, when non-nil alongside Telemetry, lets the run emit per-request
	// SLA verdicts (sla_requests_total{verdict}) using exactly the
	// Results.Attainment criterion.
	SLA *SLA
	// SLO, when non-nil alongside Telemetry, arms the deterministic alert
	// monitor: the rule set is evaluated against the live registry on a
	// daemon event every Config.Every sim-seconds, and the run's alert log
	// lands in Results.Alerts (full log via SLOMonitor).
	SLO *slo.Config

	// Perf, when non-nil, arms the performance observatory on this run: the
	// sampler is installed as the engine's profiler and netsim's realloc
	// probe, and (when Telemetry is also armed) emits Perfetto counter
	// tracks. It is a pure wall-clock observer — simulated results and every
	// golden surface are byte-identical with or without it. Use one Sampler
	// per run.
	Perf *perf.Sampler
}

func (o *Options) setDefaults() {
	if o.MaxDecodeBatch == 0 {
		o.MaxDecodeBatch = 64
	}
	if o.Policy == nil {
		o.Policy = PlannedPolicy{}
	}
}

// RequestMetrics records one served request's latency outcomes.
type RequestMetrics struct {
	ID       int
	TTFT     float64
	TPOT     float64 // mean time per output token after the first
	EndToEnd float64
}

// Results aggregates one simulation run.
type Results struct {
	PolicyName string
	Served     int
	Duration   float64 // simulated seconds until the last request finished
	Requests   []RequestMetrics

	// KVUtilization is the per-decode-instance KV memory utilization over
	// time (Fig. 10's series), in [0, 1].
	KVUtilization []stats.Series

	Comm collective.Counters

	// Autoscaling telemetry: transitions and decode GPU-seconds kept
	// active (equals all-GPUs x Duration when autoscaling is off).
	ScaleEvents      []ScaleEvent
	ActiveGPUSeconds float64

	// CritPath is the run's critical-path report (per-stage TTFT/E2E
	// decomposition and slowest requests), populated when telemetry is armed.
	CritPath *critpath.Report

	// Decisions summarizes the run's decision ledger (per-scheme
	// counterfactual regret, shadow-law disagreement), populated when
	// telemetry is armed.
	Decisions *decisions.Summary

	// Alerts summarizes the run's SLO alert log (fired/resolved counts,
	// firing-at-end roll-up), populated when Options.SLO armed a monitor.
	Alerts *slo.Summary
}

// TTFTs returns the TTFT sample.
func (r *Results) TTFTs() []float64 {
	out := make([]float64, len(r.Requests))
	for i := range r.Requests {
		out[i] = r.Requests[i].TTFT
	}
	return out
}

// TPOTs returns the per-request mean TPOT sample.
func (r *Results) TPOTs() []float64 {
	out := make([]float64, len(r.Requests))
	for i := range r.Requests {
		out[i] = r.Requests[i].TPOT
	}
	return out
}

// Attainment returns the fraction of requests meeting both SLA bounds
// (the paper's SLA attainment).
func (r *Results) Attainment(sla SLA) float64 {
	if len(r.Requests) == 0 {
		return 0
	}
	met := 0
	for i := range r.Requests {
		if sla.Met(r.Requests[i].TTFT, r.Requests[i].TPOT) {
			met++
		}
	}
	return float64(met) / float64(len(r.Requests))
}

// Latency summarizes one latency distribution of a run.
type Latency struct {
	Mean, P50, P90, P99 float64
}

// RunSummary is the part of a completed run that cmd/serve prints.
type RunSummary struct {
	Requests   int
	Served     int
	SimSeconds float64
	Attainment float64
	TTFT       Latency
	TPOT       Latency
}

// Summary condenses the run into the summary serve prints. offered is the
// trace's request count, served or not; Served counts the completed ones.
func (r *Results) Summary(offered int, sla SLA) RunSummary {
	latency := func(xs []float64) Latency {
		s := stats.Summarize(xs)
		return Latency{Mean: s.Mean, P50: s.P50, P90: s.P90, P99: s.P99}
	}
	return RunSummary{
		Requests:   offered,
		Served:     r.Served,
		SimSeconds: r.Duration,
		Attainment: r.Attainment(sla),
		TTFT:       latency(r.TTFTs()),
		TPOT:       latency(r.TPOTs()),
	}
}

// MeanKVUtilization returns the time-weighted mean KV utilization across
// decode instances.
func (r *Results) MeanKVUtilization() float64 {
	if len(r.KVUtilization) == 0 {
		return 0
	}
	var sum float64
	for i := range r.KVUtilization {
		sum += r.KVUtilization[i].Mean()
	}
	return sum / float64(len(r.KVUtilization))
}

// PeakKVUtilization returns the maximum KV utilization observed on any
// decode instance.
func (r *Results) PeakKVUtilization() float64 {
	var peak float64
	for i := range r.KVUtilization {
		if m := r.KVUtilization[i].Max(); m > peak {
			peak = m
		}
	}
	return peak
}
