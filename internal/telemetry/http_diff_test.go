package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServerRunsDiff drives the /runs/diff endpoint through two published
// runs: the diff must isolate the series the second run moved, keep identical
// series out of the changed list, and reject malformed or out-of-range IDs.
func TestServerRunsDiff(t *testing.T) {
	clock := 1.0
	h := New()
	h.Attach(func() float64 { return clock }, "planned")
	ctr := h.Metrics.Counter("serving_requests_completed_total", "Requests fully served.", nil)
	stable := h.Metrics.Counter("runs_total", "Runs.", nil)
	stable.Inc()
	srv := NewServer()

	ctr.Add(3)
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(RunSummary{System: "heroserve"})

	ctr.Add(4) // second run serves 4 more
	h.Metrics.Counter("faults_injected_total", "Faults.", nil).Inc()
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(RunSummary{System: "distserve"})

	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/runs/diff?a=1&b=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs/diff status %d: %s", resp.StatusCode, body)
	}
	var diff RunsDiff
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatalf("/runs/diff not JSON: %v", err)
	}
	if diff.A != 1 || diff.B != 2 {
		t.Errorf("diff ids = %d,%d", diff.A, diff.B)
	}
	var sawCompleted bool
	for _, c := range diff.Changed {
		if c.Series == "serving_requests_completed_total" {
			sawCompleted = true
			if c.A != 3 || c.B != 7 || c.Delta != 4 {
				t.Errorf("completed diff = %+v", c)
			}
		}
		if c.Series == "runs_total" {
			t.Errorf("unchanged series %q reported as changed", c.Series)
		}
	}
	if !sawCompleted {
		t.Errorf("diff missing serving_requests_completed_total: %+v", diff)
	}
	found := false
	for _, s := range diff.OnlyB {
		if s == "faults_injected_total" {
			found = true
		}
	}
	if !found {
		t.Errorf("faults_injected_total should be only_b, got %+v", diff.OnlyB)
	}
	if diff.Equal == 0 {
		t.Error("expected at least one identical series (runs_total)")
	}

	// Error paths: every one answers a JSON {"error": ...} body, like the
	// document routes.
	for path, want := range map[string]int{
		"/runs/diff":                   http.StatusBadRequest,
		"/runs/diff?a=1&b=x":           http.StatusBadRequest,
		"/runs/diff?a=1&b=2&view=flat": http.StatusBadRequest,
		"/runs/diff?a=1&b=99":          http.StatusNotFound,
		"/runs/diff?a=0&b=1":           http.StatusNotFound,
	} {
		resp, body := get(t, ts.URL+path)
		wantJSONError(t, path, resp, body, want)
	}
}

// TestServerRunsDiffCritPath exercises /runs/diff?view=critpath: the raw
// series diff collapses to a per-stage delta table of the two critical-path
// partitions.
func TestServerRunsDiffCritPath(t *testing.T) {
	clock := 1.0
	h := New()
	h.Attach(func() float64 { return clock }, "planned")
	ttftQ := h.Metrics.Counter("ttft_critical_path_seconds_total", "TTFT critical path.", []string{"stage"}, "queue")
	e2eQ := h.Metrics.Counter("e2e_critical_path_seconds_total", "E2E critical path.", []string{"stage"}, "queue")
	e2eD := h.Metrics.Counter("e2e_critical_path_seconds_total", "E2E critical path.", []string{"stage"}, "decode-compute")
	srv := NewServer()

	ttftQ.Add(1.5)
	e2eQ.Add(2)
	e2eD.Add(10)
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(RunSummary{System: "heroserve"})

	ttftQ.Add(0.5)
	e2eD.Add(5)
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(RunSummary{System: "heroserve"})

	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/runs/diff?a=1&b=2&view=critpath")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("critpath view status %d: %s", resp.StatusCode, body)
	}
	var diff CritPathDiff
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatalf("critpath view not JSON: %v", err)
	}
	if diff.A != 1 || diff.B != 2 {
		t.Errorf("ids = %d,%d", diff.A, diff.B)
	}
	if len(diff.Stages) != 2 {
		t.Fatalf("stages = %+v, want decode-compute and queue", diff.Stages)
	}
	// Sorted by stage name: decode-compute first.
	d := diff.Stages[0]
	if d.Stage != "decode-compute" || d.E2EA != 10 || d.E2EB != 15 || d.E2EDelta != 5 {
		t.Errorf("decode-compute delta = %+v", d)
	}
	q := diff.Stages[1]
	if q.Stage != "queue" || q.TTFTA != 1.5 || q.TTFTB != 2 || q.TTFTDelta != 0.5 {
		t.Errorf("queue TTFT delta = %+v", q)
	}
	if q.E2EA != 2 || q.E2EB != 2 || q.E2EDelta != 0 {
		t.Errorf("queue E2E delta = %+v", q)
	}

	// Unknown views are rejected.
	resp, _ = get(t, ts.URL+"/runs/diff?a=1&b=2&view=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus view status %d, want 400", resp.StatusCode)
	}
}

// TestServerMetricsContentNegotiation checks that /metrics answers the
// OpenMetrics media type only when the scraper asks for it.
func TestServerMetricsContentNegotiation(t *testing.T) {
	clock := 2.0
	h := testHub(&clock, nil)
	srv := NewServer()
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Default: classic Prometheus text.
	resp, body := get(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeProm {
		t.Errorf("default content-type %q", ct)
	}
	if strings.Contains(string(body), "# EOF") {
		t.Error("classic exposition must not carry the OpenMetrics EOF marker")
	}

	// Prometheus-style OpenMetrics negotiation.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; charset=utf-8, text/plain;q=0.5")
	omResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	om := string(raw)
	if ct := omResp.Header.Get("Content-Type"); ct != ContentTypeOpenMetrics {
		t.Errorf("negotiated content-type %q", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics exposition must end with # EOF, got tail %q", tailOf(om))
	}
	if !strings.Contains(om, "serving_requests_completed_created") {
		t.Error("OpenMetrics exposition missing _created series")
	}
}

func tailOf(s string) string {
	if len(s) > 40 {
		return s[len(s)-40:]
	}
	return s
}
