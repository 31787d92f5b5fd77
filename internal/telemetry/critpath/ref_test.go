package critpath

import (
	"fmt"
	"math"
	"strings"

	"heroserve/internal/telemetry"
)

// refAnalyzer is the analyzer without its request tables, span log and
// linear pass: in-flight requests live in one map keyed by (pid, request
// ID), a closed span is copied into the interval list of every request it
// served, and every window goes through the sweep. The tests feed it what
// they feed the Analyzer and require bit-identical breakdowns.
type refAnalyzer struct {
	open   map[spanKey]refSpan
	reqs   map[refKey]*refState
	faults map[int][]interval
	done   []Breakdown
	sw     sweep
}

type refKey struct{ pid, req int }

type refSpan struct {
	start float64
	stage string
	reqs  []int
}

type refState struct {
	traceID                    string
	output                     int
	hasSpan                    bool
	queue, prefill, kv, decode window
	comm, pipe                 []interval
}

func newRefAnalyzer() *refAnalyzer {
	return &refAnalyzer{
		open:   make(map[spanKey]refSpan),
		reqs:   make(map[refKey]*refState),
		faults: make(map[int][]interval),
	}
}

// Finalized returns the breakdowns completed so far, in completion order.
func (a *refAnalyzer) Finalized() []Breakdown { return a.done }

// Feed consumes one trace event, as Analyzer.Feed does.
func (a *refAnalyzer) Feed(ev telemetry.Event) {
	switch ev.Ph {
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
			stage = StageAllReduce(scheme)
		}
		a.open[spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}] = refSpan{start: ev.Ts, stage: stage, reqs: append([]int(nil), reqs...)}
	case "e":
		key := spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}
		sp, ok := a.open[key]
		if !ok {
			return
		}
		delete(a.open, key)
		iv := interval{start: sp.start, end: ev.Ts, stage: sp.stage}
		for _, req := range sp.reqs {
			rs := a.req(refKey{ev.Pid, req})
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
		if d, ok := ev.Args.Float("duration"); ok && d > 0 {
			a.faults[ev.Pid] = append(a.faults[ev.Pid],
				interval{start: ev.Ts, end: ev.Ts + d*1e6, stage: StageFaultStall})
		}
	case "X":
		if ev.Cat == "request" {
			a.feedRequestSpan(ev)
		}
	}
}

func (a *refAnalyzer) feedRequestSpan(ev telemetry.Event) {
	end := ev.Ts
	if ev.Dur != nil {
		end += *ev.Dur
	}
	if ev.Name == "request" {
		id, ok := ev.Args.Int("id")
		if !ok {
			return
		}
		rs := a.req(refKey{ev.Pid, id})
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
	key := refKey{ev.Pid, id}
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

func (a *refAnalyzer) req(k refKey) *refState {
	rs, ok := a.reqs[k]
	if !ok {
		rs = &refState{}
		a.reqs[k] = rs
	}
	return rs
}

func (a *refAnalyzer) finalize(k refKey, rs *refState) {
	delete(a.reqs, k)
	if !rs.queue.seen || !rs.prefill.seen || !rs.kv.seen {
		return
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
	a.sw.sweepIntervals(b.TTFTStages, rs.prefill, StagePrefillCompute, rs.comm, rs.pipe, faults)
	for s, v := range b.TTFTStages {
		b.E2EStages[s] = v
	}
	addStage(b.E2EStages, StageKVTransfer, rs.kv.end-rs.kv.start)
	if rs.decode.seen {
		a.sw.sweepIntervals(b.E2EStages, rs.decode, StageDecodeCompute, rs.comm, nil, faults)
	}
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
}

// sweepIntervals is partition through the sweep alone, over interval lists.
func (sw *sweep) sweepIntervals(out map[string]float64, w window, computeStage string, comm, pipe, faults []interval) {
	sw.spans, sw.keys = sw.spans[:0], sw.keys[:0]
	sw.clip(w, comm, 0, "")
	nComm := len(sw.spans)
	sw.clip(w, pipe, 1, StagePipeline)
	sw.clip(w, faults, 2, "")
	sw.sweep(out, w, computeStage, nComm)
}

// diffBreakdowns describes the first difference between two breakdown
// lists, or returns "" when they are identical: same identities, and every
// float bit-equal (or NaN in both).
func diffBreakdowns(got, want []Breakdown) string {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	sameStages := func(g, w map[string]float64) bool {
		if len(g) != len(w) {
			return false
		}
		for s, v := range w {
			if gv, ok := g[s]; !ok || !same(gv, v) {
				return false
			}
		}
		return true
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d breakdowns, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.PID != w.PID || g.Req != w.Req || g.TraceID != w.TraceID ||
			!same(g.Arrival, w.Arrival) || !same(g.TTFT, w.TTFT) || !same(g.E2E, w.E2E) ||
			!sameStages(g.TTFTStages, w.TTFTStages) || !sameStages(g.E2EStages, w.E2EStages) {
			return fmt.Sprintf("breakdown %d: got %+v, want %+v", i, g, w)
		}
	}
	return ""
}
