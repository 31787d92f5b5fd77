// Package critpath reconstructs per-request span trees from the telemetry
// trace-event stream and decomposes each request's TTFT and end-to-end
// latency into critical-path stage contributions: queue wait, prefill
// compute, all-reduce communication by scheme, pipeline activation
// transfers, KV-cache migration, decode compute, and fault stalls.
//
// The input is the deterministic event stream the serving simulator emits:
// request lifecycle spans on per-request threads, all-reduce and
// pipeline_stage async spans tagged with the request IDs they serve, and
// fault instants on the control-plane track. The analyzer consumes
// events one at a time — either live, tapped off the Tracer, or offline from
// a parsed spans.json — so it works identically on buffered and streaming
// backends.
//
// The decomposition is an exact partition: within each request window the
// elementary time segments are attributed to exactly one stage (communication
// beats transfers beats fault stalls beats compute), so the per-stage
// contributions of a request sum to its TTFT / end-to-end latency to within
// floating-point rounding. That identity is what lets the aggregate
// ttft_critical_path_seconds_total{stage} counters be cross-checked against
// the ttft_seconds histogram sum.
package critpath

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"heroserve/internal/telemetry"
)

// Stage labels of the critical-path decomposition. All-reduce communication
// is labeled "allreduce-<scheme>" (see StageAllReduce).
const (
	StageQueue          = "queue"
	StagePrefillCompute = "prefill-compute"
	StagePipeline       = "pipeline-transfer"
	StageKVTransfer     = "kv-transfer"
	StageDecodeCompute  = "decode-compute"
	StageFaultStall     = "fault-stall"
)

// StageAllReduce returns the stage label of all-reduce time under the given
// communication scheme (e.g. "allreduce-ring", "allreduce-ina-hetero").
func StageAllReduce(scheme string) string { return "allreduce-" + scheme }

// stageOrder fixes the canonical report ordering of the known stages; labels
// outside this list sort alphabetically after it.
var stageOrder = []string{
	StageQueue,
	StagePrefillCompute,
	"allreduce-ring",
	"allreduce-ina-sync",
	"allreduce-ina-async",
	"allreduce-ina-hetero",
	StagePipeline,
	StageKVTransfer,
	StageDecodeCompute,
	StageFaultStall,
}

// Breakdown is one finalized request's critical-path decomposition. Stage
// maps hold seconds and omit zero contributions; TTFTStages is a subset view
// (queue + prefill window), E2EStages covers the whole request.
type Breakdown struct {
	PID        int
	Req        int
	TraceID    string
	Arrival    float64 // seconds of sim-time
	TTFT       float64 // sum of TTFTStages
	E2E        float64 // sum of E2EStages
	TTFTStages map[string]float64
	E2EStages  map[string]float64
}

// DominantStage returns the stage with the largest end-to-end contribution
// (ties break in canonical stage order).
func (b *Breakdown) DominantStage() string {
	best, bestV := "", -1.0
	for _, s := range sortStages(b.E2EStages) {
		if v := b.E2EStages[s]; v > bestV {
			best, bestV = s, v
		}
	}
	return best
}

// interval is one attributable time range in microseconds of sim-time, with
// the stage label it carries.
type interval struct {
	start, end float64
	stage      string
}

// window is one request lifecycle phase parsed from a complete (X) span.
type window struct {
	start, end float64
	seen       bool
}

// reqState accumulates one in-flight request's evidence until it finalizes.
// The analyzer recycles it: a finalized state goes back on the free list
// zeroed, keeping its comm and pipe capacity for the next request.
type reqState struct {
	traceID                    string
	output                     int
	hasSpan                    bool // the parent "request" span arrived
	queue, prefill, kv, decode window
	comm                       []uint32 // span log indices of the all-reduces tagged with this request
	pipe                       []uint32 // span log indices of the pipeline_stage spans tagged with it
}

// reqTable holds one process's in-flight requests. The IDs of live requests
// are dense and close together, so the table is a window of slots over
// them: slots[lo:hi] hold requests base, base+1, ... (nil where none is in
// flight). Finalizing the request at the front moves base past it and every
// empty slot behind it; an empty window moves to the next ID it is asked
// for. An ID the window cannot cover cheaply — negative, below base, or far
// above the window — lives in the far map instead, and so do the requests
// a sparse window gives up at its front (see slot).
type reqTable struct {
	slots  []*reqState
	lo, hi int
	base   int // request ID of slots[lo], never negative
	live   int // non-nil slots
	far    map[int]*reqState
}

// tableSlack is how many slots a window may hold beyond four per live
// request, and how far above a window an ID may land and still widen it.
const tableSlack = 64

// at returns the slot of request id if the window covers it, else nil.
func (t *reqTable) at(id int) **reqState {
	if id >= t.base && id-t.base < t.hi-t.lo {
		return &t.slots[t.lo+id-t.base]
	}
	return nil
}

// slot returns the slot of request id, widening the window to reach it, or
// nil when id belongs in the far map. Widening keeps at least a quarter of
// the window live (less tableSlack): a request that never finalizes would
// otherwise hold base back while the run goes on, so the window gives up its
// front slots, moving their requests to the far map, until the new slot
// fits. (A served run's long requests stay within a quarter: a
// 1,500-request HeroServe run on the testbed sends no request to the far
// map.)
func (t *reqTable) slot(id int) **reqState {
	if id < 0 {
		return nil
	}
	if t.live == 0 {
		t.lo, t.hi, t.base = 0, 0, id
	}
	if id < t.base {
		return nil
	}
	i, n := id-t.base, t.hi-t.lo
	if i < n {
		return &t.slots[t.lo+i]
	}
	if i >= 2*n+tableSlack {
		return nil
	}
	for i+1 > 4*(t.live+1)+tableSlack {
		if t.live == 0 {
			t.lo, t.hi, t.base, i = 0, 0, id, 0
			break
		}
		if rs := t.slots[t.lo]; rs != nil {
			if t.far == nil {
				t.far = make(map[int]*reqState)
			}
			t.far[t.base] = rs
			t.slots[t.lo] = nil
			t.live--
		}
		t.lo, t.base, i = t.lo+1, t.base+1, i-1
	}
	t.widen(i + 1)
	return &t.slots[t.lo+i]
}

// widen stretches the window to n slots, sliding it to the front of slots
// or moving it into a larger array when it does not fit. Slots outside the
// window are always nil.
func (t *reqTable) widen(n int) {
	if t.lo+n > len(t.slots) {
		if 2*n <= len(t.slots) {
			k := copy(t.slots, t.slots[t.lo:t.hi])
			clear(t.slots[k:t.hi])
		} else {
			s := make([]*reqState, max(2*n, 16))
			copy(s, t.slots[t.lo:t.hi])
			t.slots = s
		}
		t.lo = 0
	}
	t.hi = t.lo + n
}

// release empties a finalized request's slot and moves base past the empty
// slots at the window's front.
func (t *reqTable) release(p **reqState) {
	*p = nil
	t.live--
	if t.live == 0 {
		t.lo, t.hi = 0, 0
		return
	}
	for t.slots[t.lo] == nil {
		t.lo++
		t.base++
	}
}

// openSpan is an in-flight async (b/e) span and the stage it charges.
type openSpan struct {
	start float64
	stage string
	reqs  []int
}

type spanKey struct {
	pid  int
	cat  string
	id   string
	name string
}

// Analyzer consumes trace events and produces per-request breakdowns.
type Analyzer struct {
	procs   map[int]string
	open    map[spanKey]openSpan
	tables  map[int]*reqTable  // in-flight requests per process
	faults  map[int][]interval // fault-active windows per process
	labels  map[string]string  // scheme -> StageAllReduce(scheme), built once
	done    []Breakdown        // finalized, in completion order
	onFinal []func(Breakdown)
	sweep   sweep // partition scratch, reused by every finalize

	// The span log: every closed all-reduce and pipeline_stage span, stored
	// once; requests hold indices into it. Once it reaches logLimit, the
	// spans no live request references are dropped (compact); when no
	// request is in flight, all of them are.
	log      []interval
	logLimit int
	inFlight int      // request states out of the free list
	renum    []uint32 // compaction scratch: log index -> new index + 1

	// Free lists: finalized requests' states and closed spans' reqs
	// buffers, taken again by the next request and the next open span.
	freeStates []*reqState
	freeReqs   [][]int
	// The finalizing breakdown's stages in canonical order, valid during
	// its OnFinalize callbacks.
	ttftOrder, e2eOrder []string
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		procs:    make(map[int]string),
		open:     make(map[spanKey]openSpan),
		tables:   make(map[int]*reqTable),
		faults:   make(map[int][]interval),
		labels:   make(map[string]string),
		logLimit: minLogLimit,
	}
}

// OnFinalize installs fn to run on every request the moment its breakdown is
// complete (the live collector bumps registry counters here, the stage-share
// tracker its sliding window). Callbacks run in registration order.
func (a *Analyzer) OnFinalize(fn func(Breakdown)) { a.onFinal = append(a.onFinal, fn) }

// Finalized returns the breakdowns completed so far, in completion order
// (which the deterministic event loop makes deterministic).
func (a *Analyzer) Finalized() []Breakdown { return a.done }

// Process returns the trace process name of a pid ("" if unknown).
func (a *Analyzer) Process(pid int) string { return a.procs[pid] }

// Feed consumes one trace event. Events must arrive in emit order. The
// event is valid only during the call (the tracer's tap contract), so Feed
// copies what it keeps: an open span copies the "reqs" list into a buffer
// from the free list, which goes back when the span closes. A closed span
// goes into the span log once, and each request it served records the 4-byte
// log index, found in its process's request table by ID, so closing a span
// of a K-request batch costs K slice appends.
func (a *Analyzer) Feed(ev telemetry.Event) {
	switch ev.Ph {
	case "M":
		if ev.Name == "process_name" {
			if n, ok := ev.Args.Str("name"); ok {
				a.procs[ev.Pid] = n
			}
		}
	case "b":
		if ev.Name != "allreduce" && ev.Name != "pipeline_stage" {
			return
		}
		reqs := ev.Args.Ints("reqs")
		if len(reqs) == 0 {
			return
		}
		stage := StagePipeline
		if ev.Name == "allreduce" {
			scheme, _ := ev.Args.Str("scheme")
			stage = a.allReduceStage(scheme)
		}
		var buf []int
		if n := len(a.freeReqs); n > 0 {
			buf, a.freeReqs = a.freeReqs[n-1], a.freeReqs[:n-1]
		}
		a.open[spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}] = openSpan{start: ev.Ts, stage: stage, reqs: append(buf, reqs...)}
	case "e":
		key := spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}
		sp, ok := a.open[key]
		if !ok {
			return
		}
		delete(a.open, key)
		i := a.logSpan(interval{start: sp.start, end: ev.Ts, stage: sp.stage})
		t := a.table(ev.Pid)
		pipe := ev.Name == "pipeline_stage"
		for _, req := range sp.reqs {
			rs := a.req(t, req)
			if pipe {
				rs.pipe = append(rs.pipe, i)
			} else {
				rs.comm = append(rs.comm, i)
			}
		}
		a.freeReqs = append(a.freeReqs, sp.reqs[:0])
	case "i":
		if ev.Cat != "fault" || strings.HasSuffix(ev.Name, "-recovered") {
			return
		}
		// Injection instants carry the fault's duration; the active window is
		// [ts, ts + duration].
		if d, ok := ev.Args.Float("duration"); ok && d > 0 {
			a.faults[ev.Pid] = append(a.faults[ev.Pid],
				interval{start: ev.Ts, end: ev.Ts + d*1e6, stage: StageFaultStall})
		}
	case "X":
		if ev.Cat != "request" {
			return
		}
		a.feedRequestSpan(ev)
	}
}

// feedRequestSpan ingests one request lifecycle span. The serving simulator
// emits them at completion time, parent first: request, queue, prefill,
// kv-transfer, then decode (multi-token requests only) — so the request
// finalizes on its last expected child.
func (a *Analyzer) feedRequestSpan(ev telemetry.Event) {
	end := ev.Ts
	if ev.Dur != nil {
		end += *ev.Dur
	}
	if ev.Name == "request" {
		id, ok := ev.Args.Int("id")
		if !ok {
			return
		}
		rs := a.req(a.table(ev.Pid), id)
		rs.hasSpan = true
		if tid, ok := ev.Args.Str("trace_id"); ok {
			rs.traceID = tid
		}
		if out, ok := ev.Args.Int("output"); ok {
			rs.output = out
		}
		return
	}
	id, ok := ev.Args.Int("req")
	if !ok {
		return
	}
	t := a.table(ev.Pid)
	rs := a.req(t, id)
	w := window{start: ev.Ts, end: end, seen: true}
	switch ev.Name {
	case "queue":
		rs.queue = w
	case "prefill":
		rs.prefill = w
	case "kv-transfer":
		rs.kv = w
		if rs.hasSpan && rs.output <= 1 {
			a.finalize(ev.Pid, t, id, rs)
		}
	case "decode":
		rs.decode = w
		if rs.hasSpan {
			a.finalize(ev.Pid, t, id, rs)
		}
	}
}

// allReduceStage returns StageAllReduce(scheme), concatenating each distinct
// scheme's label only once per analyzer.
func (a *Analyzer) allReduceStage(scheme string) string {
	s, ok := a.labels[scheme]
	if !ok {
		s = StageAllReduce(scheme)
		a.labels[scheme] = s
	}
	return s
}

// table returns the request table of process pid.
func (a *Analyzer) table(pid int) *reqTable {
	t, ok := a.tables[pid]
	if !ok {
		t = &reqTable{}
		a.tables[pid] = t
	}
	return t
}

// req returns the state of request id in table t, taking a recycled one for
// a new request.
func (a *Analyzer) req(t *reqTable, id int) *reqState {
	if p := t.at(id); p != nil && *p != nil {
		return *p
	}
	return a.claim(t, id)
}

// claim is req for a request without a window slot yet. A request the
// window newly covers may have started in the far map, before the window
// reached it; it moves into its slot.
func (a *Analyzer) claim(t *reqTable, id int) *reqState {
	p := t.slot(id)
	rs, ok := t.far[id]
	if p == nil {
		if !ok {
			if t.far == nil {
				t.far = make(map[int]*reqState)
			}
			rs = a.newState()
			t.far[id] = rs
		}
		return rs
	}
	if ok {
		delete(t.far, id)
	} else {
		rs = a.newState()
	}
	*p = rs
	t.live++
	return rs
}

// newState returns a recycled request state, or a new one.
func (a *Analyzer) newState() *reqState {
	a.inFlight++
	if n := len(a.freeStates); n > 0 {
		rs := a.freeStates[n-1]
		a.freeStates = a.freeStates[:n-1]
		return rs
	}
	return &reqState{}
}

// finalize publishes the request's breakdown, unless its trace is malformed
// or truncated (nothing trustworthy to report), and recycles its state.
func (a *Analyzer) finalize(pid int, t *reqTable, id int, rs *reqState) {
	if p := t.at(id); p != nil && *p == rs {
		t.release(p)
	} else {
		delete(t.far, id)
	}
	if rs.queue.seen && rs.prefill.seen && rs.kv.seen {
		a.publish(pid, id, rs)
	}
	*rs = reqState{comm: rs.comm[:0], pipe: rs.pipe[:0]}
	a.freeStates = append(a.freeStates, rs)
	if a.inFlight--; a.inFlight == 0 {
		a.log = a.log[:0]
	}
}

// minLogLimit is the span log length below which it is never compacted.
const minLogLimit = 1024

// logSpan appends a closed span to the span log and returns its index.
// When the log has reached its limit, the spans no live request references
// go first, and the next limit is twice what is left: compaction then
// costs O(1) per span logged, and the log stays within a small multiple of
// what the live requests reference.
func (a *Analyzer) logSpan(iv interval) uint32 {
	if len(a.log) >= a.logLimit {
		a.compact()
		a.logLimit = max(2*len(a.log), minLogLimit)
	}
	a.log = append(a.log, iv)
	return uint32(len(a.log) - 1)
}

// compact drops the log spans no live request references, keeping the rest
// in order, and renumbers the live requests' indices to match.
func (a *Analyzer) compact() {
	renum := resize(a.renum, len(a.log))
	a.eachState(func(rs *reqState) {
		for _, i := range rs.comm {
			renum[i] = 1
		}
		for _, i := range rs.pipe {
			renum[i] = 1
		}
	})
	n := 0
	for i, keep := range renum {
		if keep != 0 {
			a.log[n] = a.log[i]
			n++
			renum[i] = uint32(n)
		}
	}
	a.log = a.log[:n]
	a.eachState(func(rs *reqState) {
		for j, i := range rs.comm {
			rs.comm[j] = renum[i] - 1
		}
		for j, i := range rs.pipe {
			rs.pipe[j] = renum[i] - 1
		}
	})
	a.renum = renum
}

// eachState calls fn on every in-flight request's state.
func (a *Analyzer) eachState(fn func(*reqState)) {
	for _, t := range a.tables {
		for _, rs := range t.slots[t.lo:t.hi] {
			if rs != nil {
				fn(rs)
			}
		}
		for _, rs := range t.far {
			fn(rs)
		}
	}
}

// publish partitions the request's windows into stage contributions, records
// the breakdown and runs the OnFinalize callbacks.
func (a *Analyzer) publish(pid, id int, rs *reqState) {
	faults := a.faults[pid]
	b := Breakdown{
		PID:        pid,
		Req:        id,
		TraceID:    rs.traceID,
		Arrival:    rs.queue.start / 1e6,
		TTFTStages: make(map[string]float64),
		E2EStages:  make(map[string]float64),
	}
	addStage(b.TTFTStages, StageQueue, rs.queue.end-rs.queue.start)
	a.sweep.partition(b.TTFTStages, rs.prefill, StagePrefillCompute, a.log, rs.comm, rs.pipe, faults)
	for s, v := range b.TTFTStages {
		b.E2EStages[s] = v
	}
	addStage(b.E2EStages, StageKVTransfer, rs.kv.end-rs.kv.start)
	if rs.decode.seen {
		a.sweep.partition(b.E2EStages, rs.decode, StageDecodeCompute, a.log, rs.comm, nil, faults)
	}
	// Convert usec → seconds; TTFT/E2E are the plain stage sums, so the
	// decomposition identity holds by construction. They are summed in
	// canonical stage order, not map order, so their last bits are the same
	// on every run.
	a.ttftOrder = sortStagesInto(a.ttftOrder, b.TTFTStages)
	for _, s := range a.ttftOrder {
		v := b.TTFTStages[s] / 1e6
		b.TTFTStages[s] = v
		b.TTFT += v
	}
	a.e2eOrder = sortStagesInto(a.e2eOrder, b.E2EStages)
	for _, s := range a.e2eOrder {
		v := b.E2EStages[s] / 1e6
		b.E2EStages[s] = v
		b.E2E += v
	}
	a.done = append(a.done, b)
	for _, fn := range a.onFinal {
		fn(b)
	}
}

// addStage accumulates a (non-negative, nonzero) contribution in usec.
func addStage(m map[string]float64, stage string, d float64) {
	if d > 0 {
		m[stage] += d
	}
}

// sweep is partition's scratch space. The Analyzer owns one and reuses its
// slices on every finalize.
type sweep struct {
	spans   []span     // clipped spans: comm, then pipe, then fault
	starts  []edge     // start of every span without a NaN endpoint, ascending
	ends    []edge     // the same spans' ends, ascending
	spare   []edge     // merge buffer for starts and ends
	pts     []float64  // segment boundary points
	keys    []stageKey // distinct (prio, stage) pairs, by precedence once sorted
	pos     []int      // key id -> position in the sorted keys
	live    []int      // per sorted key: spans containing the current midpoint
	label   []int      // per sorted key: index of its stage in stages
	stages  []string   // distinct stages charged: the compute stage, then the keys'
	sums    []float64  // per stage: running total, seeded from the output map
	charged []bool     // per stage: whether a segment was charged to it
}

// span is one interval clipped to the window, with its stage key.
type span struct {
	start, end float64
	key        int
}

// edge is one endpoint of a span and the span's key.
type edge struct {
	at  float64
	key int
}

// stageKey is one attribution class: a priority tier (0 comm, 1 pipeline,
// 2 fault; lower wins) and a stage label. id is the key's insertion index.
type stageKey struct {
	prio  int
	stage string
	id    int
}

// partition attributes every elementary segment of the window to exactly one
// stage: all-reduce communication first (overlapping schemes break ties in
// canonical order), then pipeline transfers, then fault stalls, then the
// residual compute stage. The attributed durations sum to the window length.
// comm and pipe index the span log. It reports whether the window took the
// linear pass.
//
// A segment [s, e) between consecutive sorted boundary points goes to the
// spans containing its midpoint mid := s + (e-s)/2, i.e. start <= mid < end.
// A window whose spans are all communication, ordered and pairwise disjoint
// (a decode window) is charged in one pass (linear); any other goes through
// the sweep.
func (sw *sweep) partition(out map[string]float64, w window, computeStage string, log []interval, comm, pipe []uint32, faults []interval) bool {
	sw.spans, sw.keys = sw.spans[:0], sw.keys[:0]
	sw.clipAt(w, log, comm, 0, "")
	nComm := len(sw.spans)
	sw.clipAt(w, log, pipe, 1, StagePipeline)
	sw.clip(w, faults, 2, "")
	if nComm == len(sw.spans) && sw.linear(out, w, computeStage) {
		return true
	}
	sw.sweep(out, w, computeStage, nComm)
	return false
}

// linear charges the window in one pass when its clipped spans are all
// communication, ordered and pairwise disjoint, and the window is finite,
// and reports whether it did. The window's boundary points are then its
// start, each span's start and end in turn, and its end, so its segments
// are the spans and the gaps between them. A segment's midpoint lies in
// [s, e] and leaves the segment only when it rounds onto e: a gap's then is
// the next span's start, so the gap goes to that span; a span's is its own
// end, so the span goes to the next span if one starts there, and to compute
// otherwise. The segments are charged in boundary order, as the sweep
// charges them, so every stage's sum is bit-identical to the sweep's.
func (sw *sweep) linear(out map[string]float64, w window, computeStage string) bool {
	if d := w.end - w.start; math.IsNaN(d) || math.IsInf(d, 0) {
		return false
	}
	prev := w.start
	for _, sp := range sw.spans {
		if !(prev <= sp.start && sp.start < sp.end) {
			return false
		}
		prev = sp.end
	}
	sw.seed(out, computeStage)
	p := w.start
	for i := range sw.spans {
		sp := &sw.spans[i]
		if p < sp.start {
			l := 0 // the compute stage
			if p+(sp.start-p)/2 == sp.start {
				l = sw.label[sp.key]
			}
			sw.charge(l, sp.start-p)
		}
		l := sw.label[sp.key]
		if sp.start+(sp.end-sp.start)/2 == sp.end {
			l = 0
			if i+1 < len(sw.spans) && sw.spans[i+1].start == sp.end {
				l = sw.label[sw.spans[i+1].key]
			}
		}
		sw.charge(l, sp.end-sp.start)
		p = sp.end
	}
	if p < w.end {
		sw.charge(0, w.end-p)
	}
	sw.store(out)
	return true
}

// sweep is partition for any clipped spans (the first nComm of them comm).
// The midpoints ascend, so one sweep admits spans in start order
// (start <= mid) and retires them in end order (end <= mid), keeping a live
// count per (prio, stage) key; the first key in precedence order with a live
// span wins. That costs O(n log n) for n spans, and the segments are charged
// in boundary order exactly as a scan of every span per segment would charge
// them, so each stage's float sum is bit-identical to that scan. The sums
// run in local slots seeded from out and are stored back at the end: the
// same additions in the same order, without a map write per segment.
func (sw *sweep) sweep(out map[string]float64, w window, computeStage string, nComm int) {
	if len(sw.spans) == 0 {
		addStage(out, computeStage, w.end-w.start)
		return
	}
	// Renumber the keys in precedence order, so the winner is the lowest
	// numbered key with a live span.
	slices.SortFunc(sw.keys, func(a, b stageKey) int {
		if a.prio != b.prio {
			return cmp.Compare(a.prio, b.prio)
		}
		return compareStages(a.stage, b.stage)
	})
	sw.pos = resize(sw.pos, len(sw.keys))
	for i, k := range sw.keys {
		sw.pos[k.id] = i
	}
	sw.live = resize(sw.live, len(sw.keys))
	sw.seed(out, computeStage)
	sw.starts, sw.ends = sw.starts[:0], sw.ends[:0]
	split := 0 // starts[:split] and ends[:split] come from comm spans
	for i := range sw.spans {
		sp := &sw.spans[i]
		sp.key = sw.pos[sp.key]
		// A span with a NaN endpoint contains no midpoint.
		if !math.IsNaN(sp.start) && !math.IsNaN(sp.end) {
			sw.starts = append(sw.starts, edge{sp.start, sp.key})
			sw.ends = append(sw.ends, edge{sp.end, sp.key})
			if i < nComm {
				split = len(sw.starts)
			}
		}
	}
	sw.starts, sw.spare = sortEdges(sw.starts, sw.spare, split)
	sw.ends, sw.spare = sortEdges(sw.ends, sw.spare, split)
	pts := sw.points(w)

	admit, retire := 0, 0
	for i := 0; i+1 < len(pts); i++ {
		s, e := pts[i], pts[i+1]
		if e <= s {
			continue
		}
		mid := s + (e-s)/2
		k := -1
		if s <= mid && mid <= e {
			for ; admit < len(sw.starts) && sw.starts[admit].at <= mid; admit++ {
				sw.live[sw.starts[admit].key]++
			}
			for ; retire < len(sw.ends) && sw.ends[retire].at <= mid; retire++ {
				sw.live[sw.ends[retire].key]--
			}
			for j, n := range sw.live {
				if n > 0 {
					k = j
					break
				}
			}
		} else {
			// A NaN midpoint, or one an infinite or overflowing boundary
			// pushed past e, would break the ascending order: scan instead.
			k = sw.scan(mid)
		}
		l := 0 // the compute stage
		if k >= 0 {
			l = sw.label[k]
		}
		sw.charge(l, e-s)
	}
	sw.store(out)
}

// seed starts the per-stage sums: the compute stage's, then each key's
// stage's (label maps a key's position in keys to its stage), from out.
func (sw *sweep) seed(out map[string]float64, computeStage string) {
	sw.stages, sw.label = append(sw.stages[:0], computeStage), sw.label[:0]
	for _, k := range sw.keys {
		sw.label = append(sw.label, sw.stageIndex(k.stage))
	}
	sw.sums = sw.sums[:0]
	for _, st := range sw.stages {
		sw.sums = append(sw.sums, out[st])
	}
	sw.charged = resize(sw.charged, len(sw.stages))
}

// charge adds a segment of length d to stage l.
func (sw *sweep) charge(l int, d float64) {
	if d > 0 {
		sw.sums[l] += d
		sw.charged[l] = true
	}
}

// store writes the sums of the stages charged back to out.
func (sw *sweep) store(out map[string]float64) {
	for l, st := range sw.stages {
		if sw.charged[l] {
			out[st] = sw.sums[l]
		}
	}
}

// points returns the sorted segment boundaries: the window's endpoints and
// every span's. Clipped spans lie inside the window, so without NaNs that is
// the window start, a merge of the two sorted span orders, and the window
// end; otherwise they are collected and sorted (NaNs first).
func (sw *sweep) points(w window) []float64 {
	pts := append(sw.pts[:0], w.start)
	if len(sw.starts) < len(sw.spans) || math.IsNaN(w.start) || math.IsNaN(w.end) {
		pts = append(pts, w.end)
		for _, sp := range sw.spans {
			pts = append(pts, sp.start, sp.end)
		}
		slices.Sort(pts)
	} else {
		i, j := 0, 0
		for i < len(sw.starts) {
			if s, e := sw.starts[i].at, sw.ends[j].at; s <= e {
				pts = append(pts, s)
				i++
			} else {
				pts = append(pts, e)
				j++
			}
		}
		for ; j < len(sw.ends); j++ {
			pts = append(pts, sw.ends[j].at)
		}
		pts = append(pts, w.end)
	}
	sw.pts = pts
	return pts
}

// sortEdges sorts e[:split] and e[split:] apart, then merges them into
// spare, returning the merged edges and e's storage as the next spare. The
// analyzer appends a request's comm intervals as their spans end, so the
// comm run is usually in order already, which pdqsort detects in linear
// time, and the merge keeps the short pipeline and fault tail from breaking
// that order.
func sortEdges(e, spare []edge, split int) (sorted, rest []edge) {
	a, b := e[:split], e[split:]
	slices.SortFunc(a, cmpEdge)
	slices.SortFunc(b, cmpEdge)
	out := spare[:0]
	for len(a) > 0 && len(b) > 0 {
		if b[0].at < a[0].at {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(append(out, a...), b...)
	return out, e[:0]
}

// cmpEdge orders edges by position; neither may be NaN.
func cmpEdge(a, b edge) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	}
	return 0
}

// clip appends the intervals that overlap the window, clipped to it, under
// the given priority tier; a non-empty stage overrides the intervals' own.
func (sw *sweep) clip(w window, ivs []interval, prio int, stage string) {
	for i := range ivs {
		sw.clipOne(w, &ivs[i], prio, stage)
	}
}

// clipAt is clip over the log intervals at the given indices. A span that
// ends by the window's start or starts at its end clips to nothing, and is
// passed over without a call (a request's decode all-reduces, for its
// prefill window).
func (sw *sweep) clipAt(w window, log []interval, idx []uint32, prio int, stage string) {
	for _, i := range idx {
		if iv := &log[i]; !(iv.end <= w.start || iv.start >= w.end) {
			sw.clipOne(w, iv, prio, stage)
		}
	}
}

func (sw *sweep) clipOne(w window, iv *interval, prio int, stage string) {
	s, e := iv.start, iv.end
	if s < w.start {
		s = w.start
	}
	if e > w.end {
		e = w.end
	}
	if e <= s {
		return
	}
	st := iv.stage
	if stage != "" {
		st = stage
	}
	sw.spans = append(sw.spans, span{s, e, sw.key(prio, st)})
}

// key returns the id of the (prio, stage) key, adding it if new.
func (sw *sweep) key(prio int, stage string) int {
	for _, k := range sw.keys {
		if k.prio == prio && k.stage == stage {
			return k.id
		}
	}
	sw.keys = append(sw.keys, stageKey{prio, stage, len(sw.keys)})
	return len(sw.keys) - 1
}

// stageIndex returns the index of stage in sw.stages, adding it if new.
func (sw *sweep) stageIndex(stage string) int {
	for i, st := range sw.stages {
		if st == stage {
			return i
		}
	}
	sw.stages = append(sw.stages, stage)
	return len(sw.stages) - 1
}

// scan returns the winning key among all spans containing mid (-1 if none).
func (sw *sweep) scan(mid float64) int {
	k := -1
	for _, sp := range sw.spans {
		if sp.start <= mid && mid < sp.end && (k < 0 || sp.key < k) {
			k = sp.key
		}
	}
	return k
}

// resize returns s with length n and every element zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// stageRank is a stage's position in the canonical order; every label
// outside it ranks len(stageOrder).
func stageRank(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return len(stageOrder)
}

// compareStages orders stage labels totally: the canonical list first, then
// every other label by name.
func compareStages(a, b string) int {
	if c := cmp.Compare(stageRank(a), stageRank(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// sortStages returns the map's keys in canonical order.
func sortStages(m map[string]float64) []string {
	return sortStagesInto(make([]string, 0, len(m)), m)
}

// sortStagesInto is sortStages in dst's storage: it returns the map's keys
// in canonical order, reusing dst when it has the capacity.
func sortStagesInto(dst []string, m map[string]float64) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.SortFunc(dst, compareStages)
	return dst
}

// FromTrace feeds every event of a Chrome trace-event JSON document (the
// Tracer export format) through a fresh analyzer.
func FromTrace(r io.Reader) (*Analyzer, error) {
	events, err := decodeTrace(r)
	if err != nil {
		return nil, err
	}
	a := New()
	for _, ev := range events {
		a.Feed(ev)
	}
	return a, nil
}

// ErrNoEvents reports an empty or span-free trace document.
var ErrNoEvents = fmt.Errorf("critpath: trace document has no events")
