// Package critpath reconstructs per-request span trees from the telemetry
// trace-event stream and decomposes each request's TTFT and end-to-end
// latency into critical-path stage contributions: queue wait, prefill
// compute, all-reduce communication by scheme, pipeline activation
// transfers, KV-cache migration, decode compute, and fault stalls.
//
// The input is the deterministic event stream the serving simulator emits
// (PR 2/3): request lifecycle spans on per-request threads, all-reduce and
// pipeline_stage async spans tagged with the request IDs they serve (this
// PR), and fault instants on the control-plane track. The analyzer consumes
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
type reqState struct {
	traceID                    string
	output                     int
	hasSpan                    bool // the parent "request" span arrived
	queue, prefill, kv, decode window
	comm                       []interval // all-reduce spans tagged with this request, by scheme
	pipe                       []interval // pipeline_stage spans tagged with this request
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

type reqKey struct {
	pid int
	req int
}

// Analyzer consumes trace events and produces per-request breakdowns.
type Analyzer struct {
	procs   map[int]string
	open    map[spanKey]openSpan
	reqs    map[reqKey]*reqState
	faults  map[int][]interval // fault-active windows per process
	labels  map[string]string  // scheme -> StageAllReduce(scheme), built once
	done    []Breakdown        // finalized, in completion order
	onFinal []func(Breakdown)
	sweep   sweep // partition scratch, reused by every finalize
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		procs:  make(map[int]string),
		open:   make(map[spanKey]openSpan),
		reqs:   make(map[reqKey]*reqState),
		faults: make(map[int][]interval),
		labels: make(map[string]string),
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

// Feed consumes one trace event. Events must arrive in emit order.
func (a *Analyzer) Feed(ev telemetry.Event) {
	switch ev.Ph {
	case "M":
		if ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				a.procs[ev.Pid] = n
			}
		}
	case "b":
		if ev.Name != "allreduce" && ev.Name != "pipeline_stage" {
			return
		}
		reqs := asInts(ev.Args["reqs"])
		if len(reqs) == 0 {
			return
		}
		stage := StagePipeline
		if ev.Name == "allreduce" {
			scheme, _ := ev.Args["scheme"].(string)
			stage = a.allReduceStage(scheme)
		}
		a.open[spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}] = openSpan{start: ev.Ts, stage: stage, reqs: reqs}
	case "e":
		key := spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}
		sp, ok := a.open[key]
		if !ok {
			return
		}
		delete(a.open, key)
		iv := interval{start: sp.start, end: ev.Ts, stage: sp.stage}
		for _, req := range sp.reqs {
			rs := a.req(reqKey{ev.Pid, req})
			if ev.Name == "pipeline_stage" {
				rs.pipe = append(rs.pipe, iv)
			} else {
				rs.comm = append(rs.comm, iv)
			}
		}
	case "i":
		if ev.Cat != "fault" || strings.HasSuffix(ev.Name, "-recovered") {
			return
		}
		// Injection instants carry the fault's duration; the active window is
		// [ts, ts + duration].
		if d, ok := asFloat(ev.Args["duration"]); ok && d > 0 {
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
		id, ok := asInt(ev.Args["id"])
		if !ok {
			return
		}
		rs := a.req(reqKey{ev.Pid, id})
		rs.hasSpan = true
		if tid, ok := ev.Args["trace_id"].(string); ok {
			rs.traceID = tid
		}
		if out, ok := asInt(ev.Args["output"]); ok {
			rs.output = out
		}
		return
	}
	id, ok := asInt(ev.Args["req"])
	if !ok {
		return
	}
	key := reqKey{ev.Pid, id}
	rs := a.req(key)
	w := window{start: ev.Ts, end: end, seen: true}
	switch ev.Name {
	case "queue":
		rs.queue = w
	case "prefill":
		rs.prefill = w
	case "kv-transfer":
		rs.kv = w
		if rs.hasSpan && rs.output <= 1 {
			a.finalize(key, rs)
		}
	case "decode":
		rs.decode = w
		if rs.hasSpan {
			a.finalize(key, rs)
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

func (a *Analyzer) req(k reqKey) *reqState {
	rs, ok := a.reqs[k]
	if !ok {
		rs = &reqState{}
		a.reqs[k] = rs
	}
	return rs
}

// finalize partitions the request's windows into stage contributions and
// publishes the breakdown.
func (a *Analyzer) finalize(k reqKey, rs *reqState) {
	delete(a.reqs, k)
	if !rs.queue.seen || !rs.prefill.seen || !rs.kv.seen {
		return // malformed/truncated trace; nothing trustworthy to report
	}
	faults := a.faults[k.pid]
	b := Breakdown{
		PID:        k.pid,
		Req:        k.req,
		TraceID:    rs.traceID,
		Arrival:    rs.queue.start / 1e6,
		TTFTStages: make(map[string]float64),
		E2EStages:  make(map[string]float64),
	}
	addStage(b.TTFTStages, StageQueue, rs.queue.end-rs.queue.start)
	a.sweep.partition(b.TTFTStages, rs.prefill, StagePrefillCompute, rs.comm, rs.pipe, faults)
	for s, v := range b.TTFTStages {
		b.E2EStages[s] = v
	}
	addStage(b.E2EStages, StageKVTransfer, rs.kv.end-rs.kv.start)
	if rs.decode.seen {
		a.sweep.partition(b.E2EStages, rs.decode, StageDecodeCompute, rs.comm, nil, faults)
	}
	// Convert usec → seconds; TTFT/E2E are the plain stage sums, so the
	// decomposition identity holds by construction. They are summed in
	// canonical stage order, not map order, so their last bits are the same
	// on every run.
	for _, s := range sortStages(b.TTFTStages) {
		v := b.TTFTStages[s] / 1e6
		b.TTFTStages[s] = v
		b.TTFT += v
	}
	for _, s := range sortStages(b.E2EStages) {
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
// slices on every finalize, so a steady-state finalize allocates nothing
// beyond the Breakdown maps.
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
//
// A segment [s, e) between consecutive sorted boundary points goes to the
// spans containing its midpoint mid := s + (e-s)/2, i.e. start <= mid < end.
// The midpoints ascend, so one sweep admits spans in start order
// (start <= mid) and retires them in end order (end <= mid), keeping a live
// count per (prio, stage) key; the first key in precedence order with a live
// span wins. That costs O(n log n) for n spans, and the segments are charged
// in boundary order exactly as a scan of every span per segment would charge
// them, so each stage's float sum is bit-identical to that scan. The sums
// run in local slots seeded from out and are stored back at the end: the
// same additions in the same order, without a map write per segment.
func (sw *sweep) partition(out map[string]float64, w window, computeStage string, comm, pipe, faults []interval) {
	sw.spans, sw.keys = sw.spans[:0], sw.keys[:0]
	sw.clip(w, comm, 0, "")
	nComm := len(sw.spans)
	sw.clip(w, pipe, 1, StagePipeline)
	sw.clip(w, faults, 2, "")
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
	sw.stages, sw.label = append(sw.stages[:0], computeStage), sw.label[:0]
	for _, k := range sw.keys {
		sw.label = append(sw.label, sw.stageIndex(k.stage))
	}
	sw.sums = sw.sums[:0]
	for _, st := range sw.stages {
		sw.sums = append(sw.sums, out[st])
	}
	sw.charged = resize(sw.charged, len(sw.stages))
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
		if d := e - s; d > 0 {
			sw.sums[l] += d
			sw.charged[l] = true
		}
	}
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
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < w.start {
			s = w.start
		}
		if e > w.end {
			e = w.end
		}
		if e <= s {
			continue
		}
		st := iv.stage
		if stage != "" {
			st = stage
		}
		sw.spans = append(sw.spans, span{s, e, sw.key(prio, st)})
	}
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
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareStages)
	return keys
}

// asInt coerces a trace-arg value (int on the live path, float64 after a
// JSON round trip) to int.
func asInt(v any) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case int64:
		return int(x), true
	case float64:
		return int(x), true
	}
	return 0, false
}

// asFloat coerces a trace-arg value to float64.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// asInts coerces a trace-arg value ([]int live, []any parsed) to []int.
func asInts(v any) []int {
	switch x := v.(type) {
	case []int:
		return x
	case []any:
		out := make([]int, 0, len(x))
		for _, e := range x {
			if i, ok := asInt(e); ok {
				out = append(out, i)
			}
		}
		return out
	}
	return nil
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
