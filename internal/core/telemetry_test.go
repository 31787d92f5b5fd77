package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"heroserve/internal/faults"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/workload"
)

// runTelemetry executes one HeroServe run with the observability layer armed
// and returns the results plus both exported artifacts.
func runTelemetry(t *testing.T, sched *faults.Schedule) (*serving.Results, []byte, []byte) {
	t.Helper()
	in := inputs(t)
	hub := telemetry.New()
	var spans, prom bytes.Buffer
	if err := hub.Trace.StreamTo(&spans); err != nil {
		t.Fatal(err)
	}
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{
		Telemetry: hub,
		SLA:       &sla,
		Faults:    sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2)
	res := sys.Run(trace)
	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	return res, spans.Bytes(), prom.Bytes()
}

func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	_, spans1, prom1 := runTelemetry(t, nil)
	_, spans2, prom2 := runTelemetry(t, nil)
	if !bytes.Equal(spans1, spans2) {
		t.Error("same-seed runs exported different trace bytes")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("same-seed runs exported different metrics bytes")
	}
}

func TestTelemetryAgreesWithResults(t *testing.T) {
	res, _, _ := runTelemetry(t, nil)
	in := inputs(t)
	hub := telemetry.New()
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{Telemetry: hub, SLA: &sla})
	if err != nil {
		t.Fatal(err)
	}
	res = sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2))

	m := hub.Metrics
	if v, ok := m.Value("serving_requests_completed_total"); !ok || v != float64(res.Served) {
		t.Errorf("serving_requests_completed_total = %v,%v, want %d", v, ok, res.Served)
	}
	if v, ok := m.Value("serving_requests_admitted_total"); !ok || v != float64(len(res.Requests)) {
		t.Errorf("serving_requests_admitted_total = %v,%v, want %d", v, ok, len(res.Requests))
	}
	if n, ok := m.HistogramCount("ttft_seconds"); !ok || n != uint64(res.Served) {
		t.Errorf("ttft_seconds count = %v,%v, want %d", n, ok, res.Served)
	}
	met, _ := m.Value("sla_requests_total", "met")
	missed, _ := m.Value("sla_requests_total", "missed")
	if met+missed != float64(res.Served) {
		t.Fatalf("sla verdicts %g+%g != served %d", met, missed, res.Served)
	}
	if got, want := met/(met+missed), res.Attainment(sla); got != want {
		t.Errorf("telemetry attainment %g != Results.Attainment %g", got, want)
	}
}

func TestTelemetryTraceWellFormed(t *testing.T) {
	_, spans, _ := runTelemetry(t, nil)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int64          `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Every per-request "request" span must strictly contain its child phase
	// spans (same pid/tid): that is what makes the trace nest in Perfetto.
	type span struct{ start, end float64 }
	requests := map[[2]int64]span{}
	policySelects := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Name == "policy-select" {
			policySelects++
			if e.Args["scheme"] == nil || e.Args["reason"] == nil || e.Args["costs"] == nil {
				t.Fatalf("policy-select instant missing audit args: %v", e.Args)
			}
		}
		if e.Ph == "X" && e.Name == "request" {
			requests[[2]int64{e.Pid, e.Tid}] = span{e.Ts, e.Ts + e.Dur}
		}
	}
	if len(requests) != 20 {
		t.Fatalf("got %d request spans, want 20", len(requests))
	}
	if policySelects == 0 {
		t.Error("no policy-select audit instants")
	}
	children := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "request" {
			continue
		}
		parent, ok := requests[[2]int64{e.Pid, e.Tid}]
		if !ok {
			continue // control-plane track
		}
		children++
		const eps = 1e-6
		if e.Ts < parent.start-eps || e.Ts+e.Dur > parent.end+eps {
			t.Errorf("span %q [%g, %g] escapes its request span [%g, %g]",
				e.Name, e.Ts, e.Ts+e.Dur, parent.start, parent.end)
		}
	}
	if children == 0 {
		t.Error("request spans have no phase children")
	}
}

// TestStreamedTraceMatchesEncodingJSON: the span file of a full end-to-end
// serving run, encoded by the tracer's hand encoder, equals encoding/json's
// encoding of the events it holds, byte for byte.
func TestStreamedTraceMatchesEncodingJSON(t *testing.T) {
	_, spans, _ := runTelemetry(t, nil)
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("run recorded no spans")
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spans, want.Bytes()) {
		t.Error("streamed trace differs from encoding/json's encoding of its events")
	}
}

func TestTelemetryRecordsFaults(t *testing.T) {
	in := inputs(t)
	g := in.Graph
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDegrade, At: 0.5, Duration: 2, Edge: 0, Factor: 0.25},
		{Kind: faults.SlotExhaustion, At: 1, Duration: 2, Switch: g.Switches()[0], Slots: 4},
		{Kind: faults.AgentStall, At: 1.5, Duration: 1},
	}}
	_, spans, _ := runTelemetry(t, sched)

	// Re-run to read counters directly (runTelemetry discards the hub).
	hub := telemetry.New()
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{Telemetry: hub, SLA: &sla, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2))
	for _, kind := range []string{"link-degrade", "slot-exhaustion", "agent-stall"} {
		if v, ok := hub.Metrics.Value("faults_injected_total", kind); !ok || v != 1 {
			t.Errorf("faults_injected_total{kind=%q} = %v,%v, want 1", kind, v, ok)
		}
	}

	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &doc); err != nil {
		t.Fatal(err)
	}
	faultInstants := 0
	for _, e := range doc.TraceEvents {
		if e.Cat == "fault" && e.Ph == "i" {
			faultInstants++
		}
	}
	// Three injections plus their recoveries.
	if faultInstants < 6 {
		t.Errorf("got %d fault instants, want >= 6", faultInstants)
	}
}

// TestTraceArgKeysAscend: every event of a HeroServe run with faults, SLO
// alerts and the adaptive autoscaler armed lists its arg keys in strictly
// increasing byte order, nested cost columns included. That is the order
// encoding/json gives a map's keys, so the tracer's ordered arguments encode
// exactly what a map would have.
func TestTraceArgKeysAscend(t *testing.T) {
	in := inputs(t)
	sw := in.Graph.Switches()[0]
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDegrade, At: 0.5, Duration: 2, Edge: 0, Factor: 0.25},
		{Kind: faults.SlotExhaustion, At: 1, Duration: 2, Switch: sw, Slots: 4},
		{Kind: faults.AgentStall, At: 1.5, Duration: 1.5},
		{Kind: faults.SwitchReboot, At: 2, Duration: 1, Switch: sw},
	}}
	hub := telemetry.New()
	var spans bytes.Buffer
	if err := hub.Trace.StreamTo(&spans); err != nil {
		t.Fatal(err)
	}
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{
		Telemetry: hub,
		SLA:       &sla,
		Faults:    sched,
		SLO:       &slo.Config{Rules: faultBurstRules()},
		Autoscale: &serving.AutoscaleConfig{InitialActive: 1, Interval: 0.5, Policy: serving.NewAdaptivePolicy()},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(40, 4))
	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Cat  string          `json:"cat"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Args == nil {
			continue
		}
		cats[e.Cat] = true
		if err := checkKeysAscend(e.Args); err != nil {
			t.Fatalf("%s/%s args %s: %v", e.Cat, e.Name, e.Args, err)
		}
	}
	for _, cat := range []string{"", "request", "collective", "sched", "fault", "autoscale", "slo"} {
		if !cats[cat] {
			t.Errorf("no %q event with args: the run does not cover its emitter", cat)
		}
	}
}

// checkKeysAscend reports the first JSON object in raw, itself or a nested
// object value, whose keys do not strictly increase.
func checkKeysAscend(raw json.RawMessage) error {
	if raw[0] != '{' {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		return err
	}
	prev := ""
	for i := 0; dec.More(); i++ {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key := tok.(string)
		if i > 0 && key <= prev {
			return fmt.Errorf("key %q after %q", key, prev)
		}
		prev = key
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if err := checkKeysAscend(v); err != nil {
			return err
		}
	}
	return nil
}
