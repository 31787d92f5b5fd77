package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testHub builds an attached hub with one instrument of each kind and a
// request span, mimicking a small run. With a server, the trace streams into
// its sink, as the daemon's does.
func testHub(clock *float64, srv *Server) *Hub {
	h := New()
	if srv != nil {
		if err := h.Trace.StreamTo(srv.TraceSink()); err != nil {
			panic(err)
		}
	}
	h.Attach(func() float64 { return *clock }, "planned")
	h.Metrics.Counter("serving_requests_completed_total", "Requests fully served.", nil).Add(3)
	h.Metrics.Gauge("decode_kv_utilization", "KV utilization.", []string{"instance"}, "decode-0").Set(0.5)
	h.Metrics.Histogram("ttft_seconds", "Time to first token.", []float64{0.1, 1}, nil).Observe(0.4)
	h.Trace.Complete(1, "request", "request", 0, 1, Args{Int("id", 0)})
	return h
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// wantJSONError fails unless a response is a JSON {"error": ...} body with
// the given status, like every error of the daemon's JSON routes.
func wantJSONError(t *testing.T, path string, resp *http.Response, body []byte, status int) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("%s status %d, want %d", path, resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != jsonContentType {
		t.Errorf("%s Content-Type %q, want %q", path, ct, jsonContentType)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("%s body %q is not a JSON error (%v)", path, body, err)
	}
}

func TestServerEndpoints(t *testing.T) {
	clock := 12.5
	srv := NewServer()
	h := testHub(&clock, srv)
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(RunSummary{
		System: "heroserve", Policy: "planned", Trace: "chatbot",
		Requests: 20, Served: 20, SimSeconds: 12.5, Attainment: 0.95,
		TTFT: Latency{Mean: 0.4, P50: 0.3, P90: 0.6, P99: 0.9},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// /metrics: Prometheus text exposition that actually parses line by line.
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type %q", ct)
	}
	if !strings.Contains(string(body), "serving_requests_completed_total 3\n") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}

	// /healthz
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status  string  `json:"status"`
		SimTime float64 `json:"sim_time"`
		Runs    int     `json:"runs"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health.Status != "ok" || health.Runs != 1 || health.SimTime != 12.5 {
		t.Errorf("/healthz = %+v", health)
	}

	// /runs round-trips the summary and assigns IDs.
	resp, body = get(t, ts.URL+"/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs status %d", resp.StatusCode)
	}
	var runs []RunSummary
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs not JSON: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("/runs returned %d entries", len(runs))
	}
	r := runs[0]
	if r.ID != 1 || r.System != "heroserve" || r.Served != 20 || r.TTFT.P99 != 0.9 {
		t.Errorf("/runs[0] = %+v", r)
	}

	// /trace is a loadable Chrome trace snapshot.
	resp, body = get(t, ts.URL+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace has no events")
	}

	// Unknown paths 404.
	resp, _ = get(t, ts.URL+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status %d", resp.StatusCode)
	}
}

func TestServerEmptyRunsIsJSONArray(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	_, body := get(t, ts.URL+"/runs")
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Errorf("/runs before any run = %q, want []", got)
	}
}

// traceEvents GETs /trace and returns its events, failing unless the body
// is a complete Chrome trace document.
func traceEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, body := get(t, url+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != jsonContentType {
		t.Errorf("/trace Content-Type %q, want %q", ct, jsonContentType)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	return doc.TraceEvents
}

// TestServerTraceServesPublishedPrefix: /trace serves the stream as of the
// last PublishHub, completed into a loadable document, both mid-run and
// after it; events recorded since are not visible until the next publish.
func TestServerTraceServesPublishedPrefix(t *testing.T) {
	clock := 0.0
	srv := NewServer()
	h := testHub(&clock, srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/trace")
	wantJSONError(t, "/trace before any publish", resp, body, http.StatusNotFound)
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	mid := len(traceEvents(t, ts.URL))
	if mid != h.Trace.Len() {
		t.Fatalf("mid-run /trace has %d events, tracer recorded %d", mid, h.Trace.Len())
	}
	for i := 0; i < 2000; i++ { // well past the tracer's write buffer
		clock += 0.01
		h.Trace.Instant(ControlTID, "test", "tick", Args{Int("i", i)})
	}
	if got := len(traceEvents(t, ts.URL)); got != mid {
		t.Errorf("/trace changed without a publish: %d events, want %d", got, mid)
	}
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	if got := len(traceEvents(t, ts.URL)); got != h.Trace.Len() {
		t.Errorf("/trace after the run has %d events, tracer recorded %d", got, h.Trace.Len())
	}
}

func TestServerTraceWhileStreamingToDisk(t *testing.T) {
	clock := 1.0
	h := New()
	var sink bytes.Buffer
	if err := h.Trace.StreamTo(&sink); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Trace.CloseStream() })
	h.Attach(func() float64 { return clock }, "planned")
	srv := NewServer()
	srv.SetTraceFile("spans.json")
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/trace")
	wantJSONError(t, "/trace while streaming", resp, body, http.StatusConflict)
	if !strings.Contains(string(body), "spans.json") {
		t.Errorf("/trace conflict should name the file, got %q", body)
	}
	// Metrics still served.
	resp, _ = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics while streaming: status %d", resp.StatusCode)
	}
}

// TestServerTraceScrapesAcrossChunkHandOffs: the stream's encoder goroutine
// appends to the daemon's sink while handlers serve the published prefix.
// The loop records several chunks' worth of events between publishes, with
// policy-pick arguments the encoder must copy, and every concurrent /trace
// is a complete document that never shrinks; after the last publish it
// holds every event. Run under the race detector, this checks that a
// publish is the only hand-over of the sink.
func TestServerTraceScrapesAcrossChunkHandOffs(t *testing.T) {
	clock := 0.0
	srv := NewServer()
	h := testHub(&clock, srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/trace")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var doc struct{ TraceEvents []json.RawMessage }
				if err == nil {
					err = json.Unmarshal(body, &doc)
				}
				if err != nil {
					t.Errorf("mid-run /trace: %v", err)
					return
				}
				if n := len(doc.TraceEvents); n < last {
					t.Errorf("/trace shrank from %d to %d events", last, n)
				} else {
					last = n
				}
			}
		}()
	}
	args := policySelectArgs()
	for round := 0; round < 20; round++ {
		for i := 0; i < streamChunks*chunkEvents+round; i++ {
			clock += 0.001
			h.Trace.Instant(ControlTID, "sched", "policy-select", args)
		}
		if err := srv.PublishHub(h); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := len(traceEvents(t, ts.URL)); got != h.Trace.Len() {
		t.Errorf("/trace after the last publish has %d events, tracer recorded %d", got, h.Trace.Len())
	}
}

// TestServerConcurrentScrapes exercises the snapshot locking under the race
// detector: one goroutine plays the simulation loop (mutating the hub and
// publishing), many others scrape every endpoint concurrently.
func TestServerConcurrentScrapes(t *testing.T) {
	clock := 0.0
	srv := NewServer()
	h := testHub(&clock, srv)
	srv.HandleDoc("/doc", "test document")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "simulation loop": sole owner of the hub
		defer wg.Done()
		ctr := h.Metrics.Counter("serving_requests_completed_total", "Requests fully served.", nil)
		for i := 0; i < 50; i++ {
			clock += 0.1
			ctr.Inc()
			h.Trace.Instant(ControlTID, "test", "tick", nil)
			if err := srv.PublishHub(h); err != nil {
				t.Error(err)
				return
			}
			srv.Publish("/doc", []byte(`{"tick":1}`))
			srv.AddRun(RunSummary{System: "heroserve"})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/metrics", "/healthz", "/runs", "/trace", "/doc"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
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

// TestServerHealthzDegraded pins the alert roll-up in /healthz: publishing a
// firing set degrades the status and surfaces the worst severity.
func TestServerHealthzDegraded(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	read := func() (string, int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct {
			Status string `json:"status"`
			Firing int    `json:"alerts_firing"`
			Worst  string `json:"worst_alert_severity"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status, hz.Firing, hz.Worst
	}

	if st, firing, worst := read(); st != "ok" || firing != 0 || worst != "none" {
		t.Fatalf("fresh server: %s/%d/%s", st, firing, worst)
	}
	srv.SetAlertRollup(2, "warning")
	if st, firing, worst := read(); st != "degraded" || firing != 2 || worst != "warning" {
		t.Fatalf("firing: %s/%d/%s", st, firing, worst)
	}
	srv.SetAlertRollup(0, "")
	if st, firing, worst := read(); st != "ok" || firing != 0 || worst != "none" {
		t.Fatalf("recovered: %s/%d/%s", st, firing, worst)
	}
}
