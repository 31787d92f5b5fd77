package serving

import (
	"fmt"
	"math"
	"slices"
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
	stageXfers    []*telemetry.Counter // by destination stage (stageTransferCounter)
	spanArgs      telemetry.Args       // request-span arguments, reused per request
	traceIDBuf    []byte               // traceID's scratch, reused per request

	// freeKV recycles finished KV hand-offs along with their callbacks.
	freeKV []*kvOp
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

// kvOp is one request's KV hand-off in flight: the request and the count of
// its stage-pair transfers still moving. Its done callback is built once per
// op, and a finished op goes back on System.freeKV.
type kvOp struct {
	s     *System
	r     *request
	pairs int
	done  func()
}

// newKVOp takes an op off the free list, or builds one with its callback.
func (s *System) newKVOp(r *request, pairs int) *kvOp {
	var op *kvOp
	if k := len(s.freeKV); k > 0 {
		op = s.freeKV[k-1]
		s.freeKV[k-1] = nil
		s.freeKV = s.freeKV[:k-1]
	} else {
		op = &kvOp{s: s}
		op.done = op.pairDone
	}
	op.r, op.pairs = r, pairs
	return op
}

// pairDone counts one stage pair delivered. After the last it recycles the
// op and hands the request to its decode instance.
func (op *kvOp) pairDone() {
	if op.pairs--; op.pairs > 0 {
		return
	}
	s, r := op.s, op.r
	op.r = nil
	s.freeKV = append(s.freeKV, op)
	s.kvArrived(r)
}

// kvTokens returns the tokens currently occupying KV memory for the request.
func (r *request) kvTokens() int64 { return int64(r.req.Input + 1 + r.generated) }

// requestQueue is a FIFO of requests that reuses its backing array: a pop
// advances the head, and a push into a full array whose front half or more
// is popped slides the queued requests to the front instead of growing it.
type requestQueue struct {
	items []*request
	head  int
}

func (q *requestQueue) len() int { return len(q.items) - q.head }

func (q *requestQueue) front() *request { return q.items[q.head] }

func (q *requestQueue) pop() *request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return r
}

func (q *requestQueue) push(r *request) {
	if n := len(q.items); n == cap(q.items) && q.head > 0 && 2*q.head >= n {
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
	q.items = append(q.items, r)
}

type prefillInstance struct {
	id           int
	spec         *InstanceSpec
	groups       []*collective.Group // per pipeline stage (stageGroups)
	cm           *model.ComputeModel
	queue        requestQueue
	queuedTokens int64
	busy         bool

	// The running pass: its requests, their input-token sum and sum of
	// squares, the pipeline stage it is in, and its request IDs
	// (batchReqs). An instance runs one pass at a time, so the next pass
	// refills them, as it refills ctx, the stage's policy context.
	batch     []*request
	kin, kin2 int64
	stage     int
	reqs      []int
	ctx       GroupCtx
	// The pass's callbacks, built once per instance: computed ends a
	// stage's compute, synced its synchronization, and handedOff the
	// activation hand-off to the next stage.
	computed, synced, handedOff func()
	// handoffArgs is the hand-off span's argument buffer, filled only when
	// telemetry is armed and reused by every hand-off of the instance.
	handoffArgs telemetry.Args
}

type decodeInstance struct {
	id      int
	spec    *InstanceSpec
	groups  []*collective.Group // per pipeline stage (stageGroups)
	cm      *model.ComputeModel
	running []*request
	pending requestQueue
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
	reqs       []int // the running batch's request IDs (batchReqs)

	// Telemetry (nil when off).
	telOcc *telemetry.Gauge
	telKV  *telemetry.Gauge
}

// New builds a System over the graph. The communication policy and batching
// limits come from opts. It validates the deployment and fits one compute
// model per GPU type present (using the slowest GPU of each instance, which
// paces its synchronous iterations).
func New(g *topology.Graph, dep Deployment, opts Options) (*System, error) {
	var eng *sim.Engine
	var net *netsim.Network
	if referencePaths {
		eng = sim.NewReferenceEngine()
		net = netsim.NewReference(g, eng)
	} else {
		eng = sim.NewEngine()
		net = netsim.New(g, eng)
	}
	return newOn(g, dep, opts, eng, net)
}

// newOn is New on the given engine and network over g.
func newOn(g *topology.Graph, dep Deployment, opts Options, eng *sim.Engine, net *netsim.Network) (*System, error) {
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
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
		pi := &prefillInstance{id: i, spec: &dep.Prefill[i], groups: stageGroups(g, &dep.Prefill[i]), cm: cm}
		pi.computed = func() { s.prefillComputed(pi) }
		pi.synced = func() { s.prefillSynced(pi) }
		pi.handedOff = func() { s.runPrefillStage(pi) }
		s.prefill = append(s.prefill, pi)
	}
	for i := range dep.Decode {
		cm, err := s.computeModelFor(&dep.Decode[i])
		if err != nil {
			return nil, err
		}
		di := &decodeInstance{id: i, spec: &dep.Decode[i], groups: stageGroups(g, &dep.Decode[i]), cm: cm, active: true}
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
	// Bind the critical-path collector before Attach so its tap observes the
	// run's process_name metadata (it needs the pid→process mapping). The
	// stage-share tracker rides the same finalize stream: it is the live
	// window the autoscaler reads into its signals. The online collective
	// policy reads none of it.
	s.crit = critpath.Bind(h)
	s.shares = critpath.NewShareTracker()
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
	// registers its own alert families here, so metrics.prom lists them
	// whether or not a rule ever fires.
	if s.opts.SLO != nil {
		s.mon = slo.NewMonitor(h, *s.opts.SLO)
	}
}

// SLOMonitor returns the run's alert monitor (nil when Options.SLO is unset
// or telemetry is off). Its log and its live firing and pending alerts are
// read on the simulation goroutine, as the autoscaler reads them.
func (s *System) SLOMonitor() *slo.Monitor { return s.mon }

// StageShares returns the live critical-path stage-share window (nil when
// telemetry is off). The autoscaler folds its dominant stage into
// ScaleSignals.
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

// stageTransferCounter returns the per-stage activation hand-off counter of
// an armed run, registered on its first use so that no stage exports a
// zero series. stage is the 1-based destination pipeline stage.
func (s *System) stageTransferCounter(stage int) *telemetry.Counter {
	if stage >= len(s.stageXfers) {
		s.stageXfers = append(s.stageXfers, make([]*telemetry.Counter, stage+1-len(s.stageXfers))...)
	}
	if s.stageXfers[stage] == nil {
		s.stageXfers[stage] = s.tel.Metrics.Counter("pipeline_stage_transfers_total",
			"Pipeline-stage activation hand-offs, by 1-based destination stage.",
			[]string{"stage"}, strconv.Itoa(stage))
	}
	return s.stageXfers[stage]
}

// scaleInstant surfaces an autoscaler transition on the control-plane track.
func (s *System) scaleInstant(ev ScaleEvent) {
	if s.tel == nil {
		return
	}
	s.tel.Trace.InstantAt(ev.T, telemetry.ControlTID, "autoscale", ev.Action,
		telemetry.Args{telemetry.Int("active", ev.Active), telemetry.Int("instance", ev.ID)})
}

// Engine exposes the event engine (for injecting background traffic or
// controllers before Run).
func (s *System) Engine() *sim.Engine { return s.eng }

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

// stageGroups prepares the tensor-parallel group of each of the instance's
// pipeline stages.
func stageGroups(g *topology.Graph, spec *InstanceSpec) []*collective.Group {
	groups := make([]*collective.Group, len(spec.Stages))
	for i, stage := range spec.Stages {
		groups[i] = collective.NewGroup(g, stage)
	}
	return groups
}

// groupCtx is the CommPolicy context for a stage of an instance whose
// prepared stage groups are groups. reqs is the batch's request-ID
// membership (nil when telemetry is off).
func (s *System) groupCtx(spec *InstanceSpec, groups []*collective.Group, instance, stage int, reqs []int) GroupCtx {
	return GroupCtx{
		Comm:   s.comm,
		ID:     GroupID{Role: spec.Role, Instance: instance, Stage: stage},
		Group:  groups[stage],
		Switch: spec.stageSwitch(stage),
		Scheme: spec.stageScheme(stage),
		Reqs:   reqs,
	}
}

// batchReqs returns the sorted request IDs of a batch for span attribution,
// or nil when telemetry is off (no one would read them). The IDs go into
// buf, the instance's own buffer, refilled for each batch: the trace and the
// decision ledger read the list only during the call that records it.
func (s *System) batchReqs(buf *[]int, batch []*request) []int {
	if s.tel == nil || len(batch) == 0 {
		return nil
	}
	ids := (*buf)[:0]
	for _, r := range batch {
		ids = append(ids, r.req.ID)
	}
	sort.Ints(ids)
	*buf = ids
	return ids
}

// traceID returns the request's stable trace ID ("p<pid>-r<id>"): the trace
// process scopes the ID to one run, keeping it unique when many runs share
// one hub.
func (s *System) traceID(r *request) string {
	b := append(s.traceIDBuf[:0], 'p')
	b = strconv.AppendInt(b, int64(s.tel.Trace.PID()), 10)
	b = append(b, "-r"...)
	b = strconv.AppendInt(b, int64(r.req.ID), 10)
	s.traceIDBuf = b
	return string(b)
}

// Run replays the trace through the system and returns the results. It is
// single-shot: build a fresh System per run.
//
// The arrivals go to the engine as one stream, and every request's state
// lives in one slab, filled as the request arrives.
func (s *System) Run(trace *workload.Trace) *Results {
	arrivals := trace.Requests
	slab := make([]request, len(arrivals))
	s.eng.PostEach(len(arrivals),
		func(i int) sim.Time { return arrivals[i].Arrival },
		func(i int) {
			r := &slab[i]
			r.req = arrivals[i]
			s.admit(r)
		})
	if s.opts.Autoscale != nil {
		s.startAutoscaler(*s.opts.Autoscale)
	}
	if s.mon != nil {
		// The monitor rides daemon events like the autoscaler: it evaluates
		// once per interval while real work is queued and never keeps a
		// finished run alive. Prime captures the run-start registry baseline
		// so window deltas stay run-scoped on hubs shared by many runs.
		s.mon.Prime(s.eng.Now())
		var tick func()
		tick = func() {
			s.mon.Step(s.eng.Now())
			if s.eng.PendingWork() > 0 {
				s.eng.PostAfterDaemon(s.mon.Interval(), tick)
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
	best.queue.push(r)
	best.queuedTokens += int64(r.req.Input)
	s.telAdmitted.Inc()
	s.maybeStartPrefill(best)
}

// maybeStartPrefill launches a prefill pass when the instance is idle and
// has work: continuous batching with a token budget (§III-B).
func (s *System) maybeStartPrefill(pi *prefillInstance) {
	if pi.busy || pi.queue.len() == 0 {
		return
	}
	batch := pi.batch[:0]
	var kin, kin2 int64
	for pi.queue.len() > 0 {
		r := pi.queue.front()
		in := int64(r.req.Input)
		if len(batch) > 0 && kin+in > maxPrefillTokens {
			break
		}
		pi.queue.pop()
		pi.queuedTokens -= in
		batch = append(batch, r)
		kin += in
		kin2 += in * in
	}
	pi.batch, pi.kin, pi.kin2, pi.stage = batch, kin, kin2, 0
	pi.reqs = s.batchReqs(&pi.reqs, batch)
	pi.busy = true
	now := s.eng.Now()
	for _, r := range batch {
		r.prefillStart = now
	}
	s.telBatchReqs.Observe(float64(len(batch)))
	s.telBatchToks.Observe(float64(kin))
	s.runPrefillStage(pi)
}

// runPrefillStage starts the running pass's current pipeline stage: its
// compute, then (prefillComputed) its tensor-parallel synchronization, then
// (prefillSynced) the activation hand-off to the next stage.
func (s *System) runPrefillStage(pi *prefillInstance) {
	spec := pi.spec
	tc := pi.cm.Prefill(pi.kin, pi.kin2, spec.Ptens()) / float64(spec.Ppipe())
	s.eng.PostAfter(tc, pi.computed)
}

// prefillComputed synchronizes the stage's tensor-parallel group once its
// compute is done. Policies use the context only during the call.
func (s *System) prefillComputed(pi *prefillInstance) {
	spec := pi.spec
	if spec.Ptens() <= 1 {
		s.prefillSynced(pi)
		return
	}
	pi.ctx = s.groupCtx(spec, pi.groups, pi.id, pi.stage, pi.reqs)
	s.opts.Policy.AllReduce(&pi.ctx, s.dep.Model.SyncBytes(pi.kin), s.syncSteps(spec), pi.synced)
}

// prefillSynced moves the pass on from a synchronized stage: it hands the
// activations to the next pipeline stage, or finishes the pass after the
// last.
func (s *System) prefillSynced(pi *prefillInstance) {
	spec := pi.spec
	stage := pi.stage
	pi.stage++
	if pi.stage == spec.Ppipe() {
		s.finishPrefill(pi)
		return
	}
	from := spec.Stages[stage][0]
	to := spec.Stages[stage+1][0]
	bytes := s.dep.Model.PipelineActivationBytes(pi.kin)
	var args telemetry.Args
	if s.tel != nil {
		s.stageTransferCounter(stage + 1).Inc()
		args = append(pi.handoffArgs[:0], telemetry.Int64("bytes", bytes), telemetry.Int("instance", pi.id))
		if len(pi.reqs) > 0 {
			args = append(args, telemetry.Ints("reqs", pi.reqs))
		}
		args = append(args, telemetry.Int("stage", stage+1))
		pi.handoffArgs = args
	}
	s.comm.TransferSpan("pipeline", "pipeline_stage", args, from, to, bytes, pi.handedOff)
}

// finishPrefill records first tokens, assigns decode targets, and migrates
// KV caches. The network is held across the hand-off, so the batch's
// transfers are rated by one reallocation unless the router reads a rate
// between them (netsim.Network.Hold).
func (s *System) finishPrefill(pi *prefillInstance) {
	now := s.eng.Now()
	s.net.Hold()
	for _, r := range pi.batch {
		r.firstTokenAt = now
		s.transferKV(pi, r)
	}
	s.net.Release()
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
	// The op counts the transfers, so one callback serves them all.
	// Callbacks fire from engine events only, never synchronously, so every
	// transfer is counted before the first pairDone runs.
	op := s.newKVOp(r, pp)
	for st := 0; st < pp; st++ {
		from := pi.spec.Stages[st][0]
		to := target.spec.Stages[st*ppD/pp][0]
		s.comm.Transfer(from, to, share, op.done)
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
	di.pending.push(r)
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
	for di.pending.len() > 0 && len(di.running) < s.batchCap() {
		r := di.pending.front()
		need := r.kvTokens() * kvPerTok
		if di.kvUsed+need > di.kvCap && len(di.running) > 0 {
			break
		}
		di.pending.pop()
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
	reqs := s.batchReqs(&di.reqs, di.running)
	di.stagesLeft = spec.Ppipe()
	for st := range di.ctxs {
		di.ctxs[st] = s.groupCtx(spec, di.groups, di.id, st, reqs)
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
	s.telTTFT.Observe(ttft)
	s.telTPOT.Observe(tpot)
	s.telE2E.Observe(now - r.req.Arrival)
	if s.opts.SLA != nil {
		// SLA.Met is the Results.Attainment verdict, so the exported verdict
		// counters reproduce the run's attainment bit-for-bit.
		if s.opts.SLA.Met(ttft, tpot) {
			s.telSLAMet.Inc()
		} else {
			s.telSLAMissed.Inc()
		}
	}
	s.emitRequestSpans(r, now, s.traceID(r))
}

// emitRequestSpans writes the request's nested lifecycle spans on its own
// trace thread (tid = request ID + 1): the whole request, stamped with its
// trace ID, then queue -> prefill -> kv-transfer -> decode. Parents precede
// children, which is how Perfetto resolves equal-timestamp nesting.
func (s *System) emitRequestSpans(r *request, now sim.Time, traceID string) {
	tr := s.tel.Trace
	tid := r.req.ID + 1
	args := append(s.spanArgs[:0], telemetry.Int("id", r.req.ID), telemetry.Int("input", r.req.Input),
		telemetry.Int("output", r.req.Output), telemetry.Str("trace_id", traceID))
	tr.Complete(tid, "request", "request", r.req.Arrival, now, args)
	args = append(args[:0], telemetry.Int("req", r.req.ID))
	tr.Complete(tid, "request", "queue", r.req.Arrival, r.prefillStart, args)
	tr.Complete(tid, "request", "prefill", r.prefillStart, r.firstTokenAt, args)
	tr.Complete(tid, "request", "kv-transfer", r.firstTokenAt, r.kvArrivedAt, args)
	if r.req.Output > 1 {
		args = append(args, telemetry.Int("tokens", r.generated))
		tr.Complete(tid, "request", "decode", r.kvArrivedAt, now, args)
	}
	s.spanArgs = args
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
//
// Every lane routes into its own node and edge buffers. The network clears
// a group flow's path before it runs the group's done, so when a lane's
// transfer delivers, its buffers are free for the next route. All lanes draw
// their pairs from one generator, in launch order.
func LaunchElephants(net *netsim.Network, router *collective.StaticRouter, n int, bytes int64, horizon float64, seed int64) {
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
	for i := 0; i < n; i++ {
		var nodes []topology.NodeID
		var edges []topology.EdgeID
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
			ns, es, ok := router.AppendRoute(nodes[:0], edges[:0], a, b, bytes)
			if !ok {
				return
			}
			nodes, edges = ns, es
			net.StartGroup([]topology.Path{{Nodes: nodes, Edges: edges}}, bytes, netsim.Inline, launch)
		}
		eng.Post(0, launch)
	}
}

// InjectBursts schedules background traffic (workload.BurstTrain) as flows
// between deterministic pseudo-random GPU pairs, reproducing the bursty
// conditions that congest homogeneous INA (§I). Each burst starts its routed
// pairs as one flow group, so one reallocation rates them all. Call before
// Run.
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
	bursts = slices.Clone(bursts)
	var paths []topology.Path // one burst's routes, reused across bursts
	s.eng.PostEach(len(bursts), func(j int) sim.Time { return bursts[j].At }, func(j int) {
		b := &bursts[j]
		paths = paths[:0]
		for i := 0; i < b.Flows; i++ {
			a := gpus[next(len(gpus))]
			c := gpus[next(len(gpus))]
			if a == c {
				continue
			}
			if p, ok := router.Route(a, c, b.Bytes); ok {
				paths = append(paths, p)
			}
		}
		if len(paths) > 0 { // StartGroup panics on an empty group
			s.net.StartGroup(paths, b.Bytes, 0, nil)
		}
	})
}
