package core

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"testing"

	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/workload"
)

// critRun executes one full serving run with telemetry armed and returns the
// results, the metrics exposition and the trace export.
func critRun(t *testing.T, system string) (*serving.Results, []byte, []byte) {
	t.Helper()
	in := inputs(t)
	hub := telemetry.New()
	var prom, spans bytes.Buffer
	if err := hub.Trace.StreamTo(&spans); err != nil {
		t.Fatal(err)
	}
	sla := in.SLA
	opts := serving.Options{Telemetry: hub, SLA: &sla}
	s, err := ByName(system)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := s.Build(in, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2))
	if err := hub.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := hub.Trace.CloseStream(); err != nil {
		t.Fatal(err)
	}
	return res, prom.Bytes(), spans.Bytes()
}

// sample reads one unlabeled sample out of the exposition text.
func sample(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("exposition has no %s sample", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("bad sample %q: %v", m[0], err)
	}
	return v
}

// sumCounterFamily sums every {stage} child of a critical-path counter
// family out of the exposition text.
func sumCounterFamily(t *testing.T, exposition []byte, fam string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + fam + `_total\{stage="[^"]+"\} (\S+)$`)
	var sum float64
	for _, m := range re.FindAllSubmatch(exposition, -1) {
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", m[0], err)
		}
		sum += v
	}
	return sum
}

// TestCritPathSumsMatchHistograms is the acceptance identity: for each
// system, the per-stage critical-path totals must sum to the TTFT and E2E
// histogram sums within 1e-6 — the decomposition is exact, not approximate.
func TestCritPathSumsMatchHistograms(t *testing.T) {
	for _, system := range []string{"heroserve", "distserve", "ds-switchml"} {
		t.Run(system, func(t *testing.T) {
			res, prom, _ := critRun(t, system)
			if res.CritPath == nil {
				t.Fatal("Results.CritPath not populated")
			}
			if res.CritPath.Requests != res.Served {
				t.Fatalf("critpath finalized %d requests, served %d",
					res.CritPath.Requests, res.Served)
			}
			ttftHist := sample(t, prom, "ttft_seconds_sum")
			e2eHist := sample(t, prom, "request_seconds_sum")

			ttftStages := sumCounterFamily(t, prom, "ttft_critical_path_seconds")
			e2eStages := sumCounterFamily(t, prom, "e2e_critical_path_seconds")
			if math.Abs(ttftStages-ttftHist) > 1e-6 {
				t.Errorf("ttft stages sum %.9f != histogram sum %.9f (delta %g)",
					ttftStages, ttftHist, ttftStages-ttftHist)
			}
			if math.Abs(e2eStages-e2eHist) > 1e-6 {
				t.Errorf("e2e stages sum %.9f != histogram sum %.9f (delta %g)",
					e2eStages, e2eHist, e2eStages-e2eHist)
			}
			// The in-process report agrees with the exported counters.
			if math.Abs(res.CritPath.TTFTSum()-ttftStages) > 1e-6 {
				t.Errorf("report TTFT sum %.9f != counter sum %.9f",
					res.CritPath.TTFTSum(), ttftStages)
			}
			if math.Abs(res.CritPath.E2ESum()-e2eStages) > 1e-6 {
				t.Errorf("report E2E sum %.9f != counter sum %.9f",
					res.CritPath.E2ESum(), e2eStages)
			}
		})
	}
}

// TestCritPathReportDeterministic: the hstat-trace-style report and the
// metrics exposition must be byte-identical across same-seed runs.
func TestCritPathReportDeterministic(t *testing.T) {
	res1, prom1, _ := critRun(t, "heroserve")
	res2, prom2, _ := critRun(t, "heroserve")
	var r1, r2 bytes.Buffer
	if err := res1.CritPath.Fprint(&r1); err != nil {
		t.Fatal(err)
	}
	if err := res2.CritPath.Fprint(&r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Error("critical-path reports differ across same-seed runs")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("metrics expositions differ across same-seed runs")
	}
}

// TestSlowestRequestsResolveToTraceSpans: every trace ID in the
// critical-path report's slowest-requests table must name a request span in
// the same run's trace export — the link from the report to the span.
func TestSlowestRequestsResolveToTraceSpans(t *testing.T) {
	res, _, spans := critRun(t, "heroserve")
	if len(res.CritPath.Slowest) == 0 {
		t.Fatal("report lists no slowest requests")
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &doc); err != nil {
		t.Fatal(err)
	}
	spanIDs := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "request" {
			if id, ok := e.Args["trace_id"].(string); ok {
				spanIDs[id] = true
			}
		}
	}
	for _, b := range res.CritPath.Slowest {
		if !spanIDs[b.TraceID] {
			t.Errorf("slowest request %d: trace ID %q has no request span in the trace export", b.Req, b.TraceID)
		}
	}
}
