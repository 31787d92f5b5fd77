package serving

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"heroserve/internal/collective"
	"heroserve/internal/faults"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/stats"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// kvUsableFraction leaves headroom in the post-weight GPU memory for
// activations and fragmentation before KV admission blocks.
const kvUsableFraction = 0.95

// System is one configured serving simulation.
type System struct {
	g    *topology.Graph
	eng  *sim.Engine
	net  *netsim.Network
	comm *collective.Comm

	dep  Deployment
	opts Options

	prefill []*prefillInstance
	decode  []*decodeInstance
	scaler  *autoscaler
	inj     *faults.Injector

	fitted map[string]*model.ComputeModel

	metrics []RequestMetrics

	// batchTarget is the effective per-instance running-batch cap, steered
	// at runtime by a BatchAdvisor scale policy; 0 means the configured
	// Options.MaxDecodeBatch.
	batchTarget int

	// Telemetry (nil when off).
	tel           *telemetry.Hub
	crit          *critpath.Collector
	shares        *critpath.ShareTracker
	ledger        *decisions.Ledger
	mon           *slo.Monitor
	telAdmitted   *telemetry.Counter
	telCompleted  *telemetry.Counter
	telSLAMet     *telemetry.Counter
	telSLAMissed  *telemetry.Counter
	telTTFT       *telemetry.Histogram
	telTPOT       *telemetry.Histogram
	telE2E        *telemetry.Histogram
	telBatchReqs  *telemetry.Histogram
	telBatchToks  *telemetry.Histogram
	telGPUSeconds *telemetry.Counter
}

// request tracks one in-flight request's simulation state.
type request struct {
	req          workload.Request
	prefillStart sim.Time
	firstTokenAt sim.Time
	kvArrivedAt  sim.Time
	generated    int // decode tokens produced (beyond the prefill token)
	target       *decodeInstance
}

// kvTokens returns the tokens currently occupying KV memory for the request.
func (r *request) kvTokens() int64 { return int64(r.req.Input + 1 + r.generated) }

type prefillInstance struct {
	id           int
	spec         *InstanceSpec
	cm           *model.ComputeModel
	queue        []*request
	queuedTokens int64
	busy         bool
}

type decodeInstance struct {
	id      int
	spec    *InstanceSpec
	cm      *model.ComputeModel
	running []*request
	pending []*request
	// Autoscaling state: instances are active by default; with
	// Options.Autoscale, reserves start deactivated and the autoscaler
	// toggles them (activating = weights still loading). idle is an explicit
	// flag — sim time starts at 0, so a zero idleSince cannot double as a
	// "not idle" sentinel; idleSince is meaningful only while idle is set.
	active     bool
	activating bool
	idle       bool
	idleSince  sim.Time
	// inflightKV counts tokens whose KV is currently migrating toward this
	// instance, for load-aware assignment.
	inflightKV int64
	kvUsed     int64
	kvCap      int64
	iterating  bool
	iterations int64
	series     stats.Series

	// The decode iteration's callbacks, built once per instance: computed
	// ends the compute phase, synced ends one stage's synchronization, and
	// stagesLeft counts the stages still synchronizing. ctxs holds one
	// policy context per stage, refilled each iteration.
	computed   func()
	synced     func()
	stagesLeft int
	ctxs       []GroupCtx

	// Telemetry (nil when off).
	telOcc *telemetry.Gauge
	telKV  *telemetry.Gauge
}

// New builds a System over the graph. The communication policy and batching
// limits come from opts. It validates the deployment and fits one compute
// model per GPU type present (using the slowest GPU of each instance, which
// paces its synchronous iterations).
func New(g *topology.Graph, dep Deployment, opts Options) (*System, error) {
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	var eng *sim.Engine
	var net *netsim.Network
	if referencePaths {
		eng = sim.NewReferenceEngine()
		net = netsim.NewReference(g, eng)
	} else {
		eng = sim.NewEngine()
		net = netsim.New(g, eng)
	}
	var router collective.Router = collective.NewStaticRouter(g)
	if opts.RouterFactory != nil {
		router = opts.RouterFactory(net)
	}
	s := &System{
		g:      g,
		eng:    eng,
		net:    net,
		comm:   collective.NewComm(net, router),
		dep:    dep,
		opts:   opts,
		fitted: make(map[string]*model.ComputeModel),
	}
	for i := range dep.Prefill {
		cm, err := s.computeModelFor(&dep.Prefill[i])
		if err != nil {
			return nil, err
		}
		s.prefill = append(s.prefill, &prefillInstance{id: i, spec: &dep.Prefill[i], cm: cm})
	}
	for i := range dep.Decode {
		cm, err := s.computeModelFor(&dep.Decode[i])
		if err != nil {
			return nil, err
		}
		di := &decodeInstance{id: i, spec: &dep.Decode[i], cm: cm, active: true}
		di.kvCap = s.kvCapacity(&dep.Decode[i])
		di.computed = func() { s.syncDecode(di) }
		di.synced = func() { s.stageSynced(di) }
		di.ctxs = make([]GroupCtx, di.spec.Ppipe())
		di.series.Name = fmt.Sprintf("decode-%d", i)
		s.decode = append(s.decode, di)
	}
	if opts.Faults != nil {
		s.inj = faults.NewInjector(s.net, s.comm)
		s.inj.Arm(*opts.Faults)
	}
	if opts.Perf != nil {
		opts.Perf.BindEngine(eng)
		eng.SetProfiler(opts.Perf)
		net.SetPerf(opts.Perf)
	}
	if opts.Telemetry != nil {
		s.attachTelemetry(opts.Telemetry)
	}
	return s, nil
}

// attachTelemetry binds the hub to this run's engine clock (opening a trace
// process named after the communication policy) and arms every layer:
// network flows and links, switch data planes, collective ops and spans,
// fault instants, and the serving-level request/SLA/batching metrics.
func (s *System) attachTelemetry(h *telemetry.Hub) {
	s.tel = h
	// The decision ledger rides along with telemetry: every control-plane
	// choice (collective-scheme picks via the CommPolicy, scale decisions via
	// the autoscaler) appends its counterfactual record here.
	s.ledger = decisions.NewLedger()
	if s.opts.LedgerCap > 0 {
		s.ledger.SetCap(s.opts.LedgerCap)
		help := "Telemetry records dropped by retention caps, by kind."
		evict := map[string]*telemetry.Counter{
			decisions.KindCollective: h.Metrics.Counter("telemetry_evictions_total",
				help, []string{"kind"}, decisions.KindCollective),
			decisions.KindScale: h.Metrics.Counter("telemetry_evictions_total",
				help, []string{"kind"}, decisions.KindScale),
		}
		s.ledger.SetOnEvict(func(kind string, n int) {
			if c := evict[kind]; c != nil {
				c.Add(float64(n))
			}
		})
	}
	// Bind the critical-path collector before Attach so its tap observes the
	// run's process_name metadata (it needs the pid→process mapping). The
	// stage-share tracker rides the same finalize stream: it is the live
	// window the online collective policy and the autoscaler act on.
	s.crit = critpath.Bind(h)
	s.shares = critpath.NewShareTracker(0)
	s.crit.Analyzer.OnFinalize(s.shares.Observe)
	h.Attach(s.eng.Now, s.opts.Policy.Name())
	s.net.SetTelemetry(h)
	s.comm.SetTelemetry(h)
	if s.inj != nil {
		s.inj.SetTelemetry(h)
	}
	m := h.Metrics
	s.telAdmitted = m.Counter("serving_requests_admitted_total",
		"Requests admitted to a prefill queue.", nil)
	s.telCompleted = m.Counter("serving_requests_completed_total",
		"Requests fully served.", nil)
	s.telSLAMet = m.Counter("sla_requests_total",
		"Served requests by SLA verdict (TTFT and TPOT both within bound).",
		[]string{"verdict"}, "met")
	s.telSLAMissed = m.Counter("sla_requests_total",
		"Served requests by SLA verdict (TTFT and TPOT both within bound).",
		[]string{"verdict"}, "missed")
	s.telTTFT = m.Histogram("ttft_seconds", "Time to first token.",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}, nil)
	s.telTPOT = m.Histogram("tpot_seconds", "Mean time per output token after the first.",
		[]float64{0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5}, nil)
	s.telE2E = m.Histogram("request_seconds", "Request end-to-end latency.",
		[]float64{0.5, 1, 2.5, 5, 10, 25, 50, 100}, nil)
	s.telBatchReqs = m.Histogram("prefill_batch_requests", "Requests per prefill batch.",
		[]float64{1, 2, 4, 8, 16, 32}, nil)
	s.telBatchToks = m.Histogram("prefill_batch_tokens", "Token budget used per prefill batch.",
		[]float64{256, 1024, 4096, 8192, 16384, 32768}, nil)
	s.telGPUSeconds = m.Counter("decode_gpu_seconds_total",
		"Decode GPU-seconds kept active (autoscaled runs accrue incrementally; static runs charge all GPUs for the whole duration).", nil)
	for _, di := range s.decode {
		name := fmt.Sprintf("decode-%d", di.id)
		di.telOcc = m.Gauge("decode_batch_occupancy",
			"Requests in the running decode batch.", []string{"instance"}, name)
		di.telKV = m.Gauge("decode_kv_utilization",
			"KV-cache memory utilization (clamped at 1.5).", []string{"instance"}, name)
	}
	// The SLO monitor consumes the registry the layers above just armed; it
	// registers its own alert families here so the exposition's shape is
	// fixed before the first scrape.
	if s.opts.SLO != nil {
		s.mon = slo.NewMonitor(h, *s.opts.SLO)
	}
}

// SLOMonitor returns the run's alert monitor (nil when Options.SLO is unset
// or telemetry is off). Read its log or subscribe to its feed before Run.
func (s *System) SLOMonitor() *slo.Monitor { return s.mon }

// StageShares returns the live critical-path stage-share window (nil when
// telemetry is off). The online collective policy biases scheme selection on
// it; the autoscaler folds its dominant stage into ScaleSignals.
func (s *System) StageShares() *critpath.ShareTracker { return s.shares }

// setBatchTarget steers the effective running-batch cap, clamped to
// [MaxDecodeBatch, 2*MaxDecodeBatch]. Raising the cap re-runs admission on
// every active instance so widening takes effect this control step.
func (s *System) setBatchTarget(n int) {
	if n < s.opts.MaxDecodeBatch {
		n = s.opts.MaxDecodeBatch
	}
	if max := 2 * s.opts.MaxDecodeBatch; n > max {
		n = max
	}
	prev := s.batchCap()
	s.batchTarget = n
	if n > prev {
		for _, di := range s.decode {
			if di.active && !di.activating {
				s.admitDecode(di)
				s.maybeIterate(di)
			}
		}
	}
}

// batchCap returns the effective per-instance running-batch cap.
func (s *System) batchCap() int {
	if s.batchTarget > 0 {
		return s.batchTarget
	}
	return s.opts.MaxDecodeBatch
}

// stageTransferCounter returns the per-stage activation hand-off counter
// (nil handle when telemetry is off). stage is the 1-based destination
// pipeline stage.
func (s *System) stageTransferCounter(stage int) *telemetry.Counter {
	if s.tel == nil {
		return nil
	}
	return s.tel.Metrics.Counter("pipeline_stage_transfers_total",
		"Pipeline-stage activation hand-offs, by 1-based destination stage.",
		[]string{"stage"}, strconv.Itoa(stage))
}

// scaleInstant surfaces an autoscaler transition on the control-plane track.
func (s *System) scaleInstant(ev ScaleEvent) {
	if s.tel == nil {
		return
	}
	s.tel.Trace.InstantAt(ev.T, telemetry.ControlTID, "autoscale", ev.Action,
		map[string]any{"instance": ev.ID, "active": ev.Active})
}

// Engine exposes the event engine (for injecting background traffic or
// controllers before Run).
func (s *System) Engine() *sim.Engine { return s.eng }

// Network exposes the flow simulator.
func (s *System) Network() *netsim.Network { return s.net }

// Comm exposes the collective executor.
func (s *System) Comm() *collective.Comm { return s.comm }

// FaultInjector returns the armed fault injector (nil on fault-free runs).
// Control-plane components register their stall hooks here.
func (s *System) FaultInjector() *faults.Injector { return s.inj }

// DecisionLedger returns the run's decision ledger (nil when telemetry is
// off). Communication policies append CollectiveRecords here; the autoscaler
// appends ScaleRecords.
func (s *System) DecisionLedger() *decisions.Ledger { return s.ledger }

// computeModelFor fits (with caching) the cost model of the instance's
// slowest GPU type: synchronous data parallelism paces on the straggler.
func (s *System) computeModelFor(spec *InstanceSpec) (*model.ComputeModel, error) {
	slowest := model.GPUSpec{}
	for _, id := range spec.GPUs() {
		n := s.g.Node(id)
		if n.Kind != topology.KindGPU {
			return nil, fmt.Errorf("serving: node %d in instance is not a GPU", id)
		}
		spec, err := model.GPUByName(n.GPUType)
		if err != nil {
			return nil, err
		}
		if slowest.Name == "" || spec.PeakFLOPS < slowest.PeakFLOPS {
			slowest = spec
		}
	}
	if cm, ok := s.fitted[slowest.Name]; ok && cm.Config.Name == s.dep.Model.Name {
		return cm, nil
	}
	cm, err := model.Fit(s.dep.Model, slowest)
	if err != nil {
		return nil, err
	}
	s.fitted[slowest.Name] = cm
	return cm, nil
}

// kvCapacity returns the KV-cache byte budget of a decode instance: the
// post-weight free memory of its GPUs, derated by kvUsableFraction.
func (s *System) kvCapacity(spec *InstanceSpec) int64 {
	weight := s.dep.Model.WeightBytesPerGPU(spec.Ptens(), spec.Ppipe())
	var capBytes int64
	for _, id := range spec.GPUs() {
		free := s.g.Node(id).FreeBytes - weight
		if free > 0 {
			capBytes += free
		}
	}
	return int64(float64(capBytes) * kvUsableFraction)
}

// syncSteps returns the per-stage count of tensor-parallel synchronization
// steps in one forward pass: 2 per layer, split across pipeline stages.
func (s *System) syncSteps(spec *InstanceSpec) int {
	steps := s.dep.Model.SyncStepsPerPass() / spec.Ppipe()
	if steps < 1 {
		steps = 1
	}
	return steps
}

// groupCtx is the CommPolicy context for a stage. reqs is the batch's
// request-ID membership (nil when telemetry is off).
func (s *System) groupCtx(spec *InstanceSpec, instance, stage int, reqs []int) GroupCtx {
	return GroupCtx{
		Comm:   s.comm,
		ID:     GroupID{Role: spec.Role, Instance: instance, Stage: stage},
		Group:  spec.Stages[stage],
		Switch: spec.stageSwitch(stage),
		Scheme: spec.stageScheme(stage),
		Reqs:   reqs,
	}
}

// batchReqs returns the sorted request IDs of a batch for span attribution,
// or nil when telemetry is off (no one would read them). The slice is fresh
// on every call: trace args and the decision ledger keep it.
func (s *System) batchReqs(batch []*request) []int {
	if s.tel == nil || len(batch) == 0 {
		return nil
	}
	ids := make([]int, len(batch))
	for i, r := range batch {
		ids[i] = r.req.ID
	}
	sort.Ints(ids)
	return ids
}

// traceID returns the request's stable trace ID ("p<pid>-r<id>"): the trace
// process scopes the ID to one run, keeping it unique when a daemon serves
// many runs from one hub.
func (s *System) traceID(r *request) string {
	return fmt.Sprintf("p%d-r%d", s.tel.Trace.PID(), r.req.ID)
}

// Run replays the trace through the system and returns the results. It is
// single-shot: build a fresh System per run.
func (s *System) Run(trace *workload.Trace) *Results {
	for i := range trace.Requests {
		r := &request{req: trace.Requests[i]}
		s.eng.Post(r.req.Arrival, func() { s.admit(r) })
	}
	if s.opts.Autoscale != nil {
		s.startAutoscaler(*s.opts.Autoscale)
	}
	if s.mon != nil {
		// The monitor rides daemon events like the autoscaler: it evaluates
		// once per interval while real work is queued and never keeps a
		// finished run alive. Prime captures the run-start registry baseline
		// so window deltas stay run-scoped on multi-run daemon hubs.
		s.mon.Prime(s.eng.Now())
		var tick func()
		tick = func() {
			s.mon.Step(s.eng.Now())
			if s.eng.PendingWork() > 0 {
				s.eng.AfterDaemon(s.mon.Interval(), tick)
			}
		}
		tick()
	}
	if s.opts.Perf != nil {
		s.opts.Perf.Start(s.eng.Now())
	}
	s.eng.Run()
	if s.opts.Perf != nil {
		s.opts.Perf.Finish(s.eng.Now())
	}

	res := &Results{
		PolicyName: s.opts.Policy.Name(),
		Served:     len(s.metrics),
		Duration:   s.eng.Now(),
		Requests:   s.metrics,
		Comm:       s.comm.Counters(),
	}
	for _, di := range s.decode {
		di.recordKV(s.eng.Now())
		res.KVUtilization = append(res.KVUtilization, di.series)
	}
	if s.scaler != nil {
		s.scaler.finish()
		res.ScaleEvents = s.scaler.events
		res.ActiveGPUSeconds = s.scaler.gpuSeconds
	} else {
		gpus := 0
		for _, di := range s.decode {
			gpus += len(di.spec.GPUs())
		}
		res.ActiveGPUSeconds = float64(gpus) * res.Duration
		s.telGPUSeconds.Add(res.ActiveGPUSeconds)
	}
	if s.crit != nil {
		res.CritPath = s.crit.Analyzer.Report(critpathTopN)
		s.crit.Unbind(s.tel)
	}
	if s.ledger != nil {
		s.ledger.SetEnd(s.eng.Now())
		res.Decisions = s.ledger.Summarize()
	}
	if s.mon != nil {
		s.mon.Finish(s.eng.Now())
		res.Alerts = s.mon.Summarize()
	}
	return res
}

// critpathTopN bounds the slowest-requests table in Results.CritPath.
const critpathTopN = 10

// admit routes an arriving request to the least-loaded prefill instance
// (fewest queued tokens).
func (s *System) admit(r *request) {
	best := s.prefill[0]
	for _, pi := range s.prefill[1:] {
		if pi.queuedTokens < best.queuedTokens {
			best = pi
		}
	}
	best.queue = append(best.queue, r)
	best.queuedTokens += int64(r.req.Input)
	s.telAdmitted.Inc()
	s.maybeStartPrefill(best)
}

// maybeStartPrefill launches a prefill pass when the instance is idle and
// has work: continuous batching with a token budget (§III-B).
func (s *System) maybeStartPrefill(pi *prefillInstance) {
	if pi.busy || len(pi.queue) == 0 {
		return
	}
	var batch []*request
	var kin, kin2 int64
	for len(pi.queue) > 0 {
		r := pi.queue[0]
		in := int64(r.req.Input)
		if len(batch) > 0 && kin+in > maxPrefillTokens {
			break
		}
		pi.queue = pi.queue[1:]
		pi.queuedTokens -= in
		batch = append(batch, r)
		kin += in
		kin2 += in * in
	}
	pi.busy = true
	now := s.eng.Now()
	for _, r := range batch {
		r.prefillStart = now
	}
	s.telBatchReqs.Observe(float64(len(batch)))
	s.telBatchToks.Observe(float64(kin))
	s.runPrefillStage(pi, batch, kin, kin2, 0)
}

// runPrefillStage executes pipeline stage i of a prefill pass: compute, then
// tensor-parallel synchronization, then the activation hand-off to the next
// stage.
func (s *System) runPrefillStage(pi *prefillInstance, batch []*request, kin, kin2 int64, stage int) {
	spec := pi.spec
	if stage == spec.Ppipe() {
		s.finishPrefill(pi, batch)
		return
	}
	tc := pi.cm.Prefill(kin, kin2, spec.Ptens()) / float64(spec.Ppipe())
	reqs := s.batchReqs(batch)
	s.eng.PostAfter(tc, func() {
		next := func() {
			if stage+1 < spec.Ppipe() {
				from := spec.Stages[stage][0]
				to := spec.Stages[stage+1][0]
				bytes := s.dep.Model.PipelineActivationBytes(kin)
				s.stageTransferCounter(stage + 1).Inc()
				args := map[string]any{
					"stage": stage + 1, "instance": pi.id, "bytes": bytes,
				}
				if len(reqs) > 0 {
					args["reqs"] = reqs
				}
				s.comm.TransferSpan("pipeline", "pipeline_stage", args, from, to, bytes, func() {
					s.runPrefillStage(pi, batch, kin, kin2, stage+1)
				})
				return
			}
			s.runPrefillStage(pi, batch, kin, kin2, stage+1)
		}
		if spec.Ptens() <= 1 {
			next()
			return
		}
		ctx := s.groupCtx(spec, pi.id, stage, reqs)
		s.opts.Policy.AllReduce(&ctx, s.dep.Model.SyncBytes(kin), s.syncSteps(spec), next)
	})
}

// finishPrefill records first tokens, assigns decode targets, and migrates
// KV caches.
func (s *System) finishPrefill(pi *prefillInstance, batch []*request) {
	now := s.eng.Now()
	for _, r := range batch {
		r.firstTokenAt = now
		s.transferKV(pi, r)
	}
	pi.busy = false
	s.maybeStartPrefill(pi)
}

// transferKV migrates a request's KV cache from the prefill instance to the
// least-loaded decode instance, pairing pipeline stages (Eq. 14-15: the
// slowest pair bounds the latency).
func (s *System) transferKV(pi *prefillInstance, r *request) {
	load := func(d *decodeInstance) int64 {
		return d.kvUsed + d.inflightKV
	}
	var target *decodeInstance
	for _, di := range s.decode {
		if !di.active && !di.activating {
			continue
		}
		if target == nil || load(di) < load(target) {
			target = di
		}
	}
	if target == nil {
		// Every instance deactivated (misconfigured autoscaler floor):
		// fall back to the first instance.
		target = s.decode[0]
	}
	r.target = target
	kvTok := int64(r.req.Input + 1)
	target.inflightKV += kvTok * s.dep.Model.KVBytesPerToken()

	total := s.dep.Model.KVTransferBytes(kvTok)
	pp := pi.spec.Ppipe()
	ppD := target.spec.Ppipe()
	share := total / int64(pp)
	bar := 0
	onePairDone := func() {
		bar--
		if bar == 0 {
			s.kvArrived(r)
		}
	}
	// Callbacks fire from engine events only, never synchronously, so bar
	// reaches its full count before the first onePairDone runs.
	for st := 0; st < pp; st++ {
		from := pi.spec.Stages[st][0]
		to := target.spec.Stages[st*ppD/pp][0]
		bar++
		s.comm.Transfer(from, to, share, onePairDone)
	}
}

// kvArrived queues the request at its decode instance and kicks iteration.
func (s *System) kvArrived(r *request) {
	r.kvArrivedAt = s.eng.Now()
	di := r.target
	di.inflightKV -= int64(r.req.Input+1) * s.dep.Model.KVBytesPerToken()
	if r.req.Output <= 1 {
		// Single-token request: served entirely by prefill.
		s.complete(r)
		return
	}
	di.pending = append(di.pending, r)
	s.admitDecode(di)
	s.maybeIterate(di)
}

// admitDecode moves pending requests into the running batch while KV memory
// and the batch cap allow. A request that cannot fit even into an empty
// instance is force-admitted to avoid livelock (real systems would reject or
// swap; the SLA metrics punish it either way).
func (s *System) admitDecode(di *decodeInstance) {
	kvPerTok := s.dep.Model.KVBytesPerToken()
	changed := false
	for len(di.pending) > 0 && len(di.running) < s.batchCap() {
		r := di.pending[0]
		need := r.kvTokens() * kvPerTok
		if di.kvUsed+need > di.kvCap && len(di.running) > 0 {
			break
		}
		di.pending = di.pending[1:]
		di.kvUsed += need
		di.running = append(di.running, r)
		changed = true
	}
	if changed {
		di.recordKV(s.eng.Now())
		di.telOcc.Set(float64(len(di.running)))
	}
}

// maybeIterate starts the decode iteration loop when idle.
func (s *System) maybeIterate(di *decodeInstance) {
	if di.iterating || len(di.running) == 0 || !di.active {
		return
	}
	di.iterating = true
	s.iterate(di)
}

// iterate runs one decode iteration: memory-bound compute over the whole
// batch's KV history, then per-stage tensor-parallel synchronization, then
// token accounting, completions, admissions, and the next iteration.
func (s *System) iterate(di *decodeInstance) {
	spec := di.spec
	var kvTokens int64
	for _, r := range di.running {
		kvTokens += r.kvTokens()
	}
	tc := di.cm.Decode(kvTokens, spec.Ptens(), spec.Ppipe())
	s.eng.PostAfter(tc, di.computed)
}

// syncDecode runs when a decode iteration's compute is done: it launches
// every stage's tensor-parallel synchronization, or finishes the iteration
// at once without tensor parallelism. Policies use the stage contexts only
// during the call, so they are refilled in place.
func (s *System) syncDecode(di *decodeInstance) {
	spec := di.spec
	if spec.Ptens() <= 1 {
		s.finishIteration(di)
		return
	}
	msg := s.dep.Model.SyncBytes(int64(len(di.running)))
	steps := s.syncSteps(spec)
	reqs := s.batchReqs(di.running)
	di.stagesLeft = spec.Ppipe()
	for st := range di.ctxs {
		di.ctxs[st] = s.groupCtx(spec, di.id, st, reqs)
		s.opts.Policy.AllReduce(&di.ctxs[st], msg, steps, di.synced)
	}
}

// stageSynced counts one stage's synchronization done and finishes the
// iteration after the last.
func (s *System) stageSynced(di *decodeInstance) {
	di.stagesLeft--
	if di.stagesLeft == 0 {
		s.finishIteration(di)
	}
}

// finishIteration advances every running request by one token.
func (s *System) finishIteration(di *decodeInstance) {
	kvPerTok := s.dep.Model.KVBytesPerToken()
	di.iterations++
	survivors := di.running[:0]
	completedAny := false
	for _, r := range di.running {
		r.generated++
		di.kvUsed += kvPerTok
		if r.generated >= r.req.Output-1 {
			di.kvUsed -= r.kvTokens() * kvPerTok
			s.complete(r)
			completedAny = true
			continue
		}
		survivors = append(survivors, r)
	}
	di.running = survivors
	if completedAny {
		di.telOcc.Set(float64(len(di.running)))
	}
	if completedAny || di.iterations%kvSampleEvery == 0 {
		di.recordKV(s.eng.Now())
	}
	s.admitDecode(di)
	di.iterating = false
	s.maybeIterate(di)
}

// complete records a served request's metrics.
func (s *System) complete(r *request) {
	now := s.eng.Now()
	ttft := r.firstTokenAt - r.req.Arrival
	var tpot float64
	if r.req.Output > 1 {
		tpot = (now - r.firstTokenAt) / float64(r.req.Output-1)
	}
	s.metrics = append(s.metrics, RequestMetrics{
		ID:       r.req.ID,
		TTFT:     ttft,
		TPOT:     tpot,
		EndToEnd: now - r.req.Arrival,
	})
	if s.tel == nil {
		return
	}
	s.telCompleted.Inc()
	tid := s.traceID(r)
	s.telTTFT.ObserveTraced(ttft, tid)
	s.telTPOT.ObserveTraced(tpot, tid)
	s.telE2E.ObserveTraced(now-r.req.Arrival, tid)
	if s.opts.SLA != nil {
		// Exactly the Results.Attainment criterion, so the exported verdict
		// counters reproduce the run's attainment bit-for-bit.
		if ttft <= s.opts.SLA.TTFT && tpot <= s.opts.SLA.TPOT {
			s.telSLAMet.Inc()
		} else {
			s.telSLAMissed.Inc()
		}
	}
	s.emitRequestSpans(r, now)
}

// emitRequestSpans writes the request's nested lifecycle spans on its own
// trace thread (tid = request ID + 1): the whole request, then queue ->
// prefill -> kv-transfer -> decode. Parents precede children, which is how
// Perfetto resolves equal-timestamp nesting.
func (s *System) emitRequestSpans(r *request, now sim.Time) {
	tr := s.tel.Trace
	tid := r.req.ID + 1
	tr.Complete(tid, "request", "request", r.req.Arrival, now, map[string]any{
		"id": r.req.ID, "input": r.req.Input, "output": r.req.Output,
		"trace_id": s.traceID(r),
	})
	reqArg := map[string]any{"req": r.req.ID}
	tr.Complete(tid, "request", "queue", r.req.Arrival, r.prefillStart, reqArg)
	tr.Complete(tid, "request", "prefill", r.prefillStart, r.firstTokenAt, reqArg)
	tr.Complete(tid, "request", "kv-transfer", r.firstTokenAt, r.kvArrivedAt, reqArg)
	if r.req.Output > 1 {
		tr.Complete(tid, "request", "decode", r.kvArrivedAt, now,
			map[string]any{"req": r.req.ID, "tokens": r.generated})
	}
}

// recordKV samples the instance's KV utilization.
func (di *decodeInstance) recordKV(now sim.Time) {
	util := 0.0
	if di.kvCap > 0 {
		util = float64(di.kvUsed) / float64(di.kvCap)
	}
	v := math.Min(util, 1.5) // clamp runaway force-admissions
	di.series.Add(now, v)
	di.telKV.Set(v)
}

// InjectElephants starts n long-lived background transfers ("elephant
// flows") between deterministic pseudo-random GPU pairs, routed on static
// shortest paths (see LaunchElephants). This models the testbed's traffic
// replayer sustaining competing load on the fabric (§V). Call before Run.
func (s *System) InjectElephants(n int, bytes int64, horizon float64, seed int64) {
	LaunchElephants(s.net, collective.NewStaticRouter(s.g), n, bytes, horizon, seed)
}

// LaunchElephants starts n lanes of back-to-back background transfers
// between deterministic pseudo-random GPU pairs on net's graph: each lane
// starts its next transfer when the previous one delivers, until horizon
// simulated seconds have passed. A pair the router cannot connect ends its
// lane. Call before the engine runs.
func LaunchElephants(net *netsim.Network, router collective.Router, n int, bytes int64, horizon float64, seed int64) {
	gpus := net.Graph().GPUs()
	if len(gpus) < 2 || n <= 0 {
		return
	}
	eng := net.Engine()
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	next := func(m int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(m))
	}
	var launch func()
	launch = func() {
		if eng.Now() >= horizon {
			return
		}
		a := gpus[next(len(gpus))]
		b := a
		for b == a {
			b = gpus[next(len(gpus))]
		}
		if p, ok := router.Route(a, b, bytes); ok {
			net.OpenGroup(netsim.Inline, launch).Start(p, bytes)
		}
	}
	for i := 0; i < n; i++ {
		eng.Post(0, launch)
	}
}

// InjectBursts schedules background traffic (workload.BurstTrain) as flows
// between deterministic pseudo-random GPU pairs, reproducing the bursty
// conditions that congest homogeneous INA (§I). Call before Run.
func (s *System) InjectBursts(bursts []workload.Burst, seed int64) {
	gpus := s.g.GPUs()
	if len(gpus) < 2 {
		return
	}
	router := collective.NewStaticRouter(s.g)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(n))
	}
	for _, b := range bursts {
		b := b
		s.eng.Post(b.At, func() {
			for i := 0; i < b.Flows; i++ {
				a := gpus[next(len(gpus))]
				c := gpus[next(len(gpus))]
				if a == c {
					continue
				}
				if p, ok := router.Route(a, c, b.Bytes); ok {
					s.net.StartFlow(p, b.Bytes, nil)
				}
			}
		})
	}
}
