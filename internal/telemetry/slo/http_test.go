package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
)

// logBytes serializes a log for publishing.
func logBytes(t *testing.T, l *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatalf("write log: %v", err)
	}
	return buf.Bytes()
}

func getAlerts(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func TestAlertsEndpoint(t *testing.T) {
	srv := telemetry.NewServer()
	InstallAlerts(srv)
	decisions.InstallDecisions(srv)
	perf.InstallPerf(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Nothing published yet: JSON 404.
	code, ct, body := getAlerts(t, ts.URL+"/alerts")
	if code != http.StatusNotFound || ct != "application/json; charset=utf-8" {
		t.Fatalf("before publish: %d %q", code, ct)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] != "no alert log published yet" {
		t.Fatalf("404 body: %s (%v)", body, err)
	}

	doc := logBytes(t, sampleLog())
	srv.Publish(Route, doc)
	srv.SetAlertRollup(1, "critical")

	// No filters: the published bytes come back verbatim.
	code, ct, body = getAlerts(t, ts.URL+"/alerts")
	if code != http.StatusOK || ct != "application/json; charset=utf-8" {
		t.Fatalf("latest: %d %q", code, ct)
	}
	if !bytes.Equal(body, doc) {
		t.Errorf("latest not verbatim:\n%s\n---\n%s", body, doc)
	}

	// Filters apply server-side.
	code, _, body = getAlerts(t, ts.URL+"/alerts?state=firing")
	if code != http.StatusOK {
		t.Fatalf("filtered: %d %s", code, body)
	}
	var filtered Log
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatalf("filtered body: %v", err)
	}
	if len(filtered.Alerts) != 1 || filtered.Alerts[0].State != StateFiring {
		t.Errorf("state filter: %+v", filtered.Alerts)
	}
	code, _, body = getAlerts(t, ts.URL+"/alerts?rule=burn&from=10&to=55")
	if code != http.StatusOK {
		t.Fatalf("combined filter: %d", code)
	}
	filtered = Log{}
	json.Unmarshal(body, &filtered)
	if len(filtered.Alerts) != 1 || filtered.Alerts[0].Since != 50 {
		t.Errorf("combined filter: %+v", filtered.Alerts)
	}

	// The healthz roll-up reflects the published firing set.
	code, _, body = getAlerts(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var hz struct {
		Status string `json:"status"`
		Firing int    `json:"alerts_firing"`
		Worst  string `json:"worst_alert_severity"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hz.Status != "degraded" || hz.Firing != 1 || hz.Worst != "critical" {
		t.Errorf("healthz roll-up: %+v", hz)
	}

	// Error paths are JSON with the right statuses, on every document route,
	// and a bad run ID names the (empty) retained window.
	for url, wantCode := range map[string]int{
		"/alerts?state=bogus": http.StatusBadRequest,
		"/alerts?from=x":      http.StatusBadRequest,
		"/alerts?to=x":        http.StatusBadRequest,
		"/alerts?run=x":       http.StatusNotFound,
		"/alerts?run=0":       http.StatusNotFound,
		"/alerts?run=9":       http.StatusNotFound,
		"/perf":               http.StatusNotFound,
		"/perf?run=9":         http.StatusNotFound,
		"/decisions?run=0":    http.StatusNotFound,
	} {
		code, ct, body = getAlerts(t, ts.URL+url)
		if code != wantCode || ct != "application/json; charset=utf-8" {
			t.Errorf("%s: %d %q (want %d)", url, code, ct, wantCode)
		}
		e = nil
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s body not a JSON error: %s", url, body)
		}
		if strings.Contains(url, "run=") && e["error"] != "no completed runs retained" {
			t.Errorf("%s error %q, want the retained-window message", url, e["error"])
		}
	}
}

func TestAlertsRunSnapshots(t *testing.T) {
	srv := telemetry.NewServer()
	InstallAlerts(srv)
	srv.SetMaxRuns(2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Three runs, each with a distinct alert log snapshot; retention keeps two.
	for i := 1; i <= 3; i++ {
		l := &Log{Meta: Meta{Rules: []Rule{{Name: "kv"}}, End: float64(i * 10)}}
		srv.Publish(Route, logBytes(t, l))
		srv.AddRun(telemetry.RunSummary{System: "test"})
	}

	// Run 1 is evicted; the 404 names the retained window.
	code, _, body := getAlerts(t, ts.URL+"/alerts?run=1")
	if code != http.StatusNotFound {
		t.Fatalf("evicted run: %d", code)
	}
	var e map[string]string
	json.Unmarshal(body, &e)
	if e["error"] != "run out of range: have runs 2..3" {
		t.Errorf("evicted run error: %q", e["error"])
	}

	// Surviving runs keep their original IDs and their own snapshots.
	for run, wantEnd := range map[string]float64{"2": 20, "3": 30} {
		code, _, body = getAlerts(t, ts.URL+"/alerts?run="+run)
		if code != http.StatusOK {
			t.Fatalf("run %s: %d %s", run, code, body)
		}
		var l Log
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatalf("run %s body: %v", run, err)
		}
		if l.Meta.End != wantEnd {
			t.Errorf("run %s served End=%g, want %g", run, l.Meta.End, wantEnd)
		}
	}

	// Per-run filters work on snapshots too.
	code, _, _ = getAlerts(t, ts.URL+"/alerts?run=3&state=firing")
	if code != http.StatusOK {
		t.Errorf("filtered snapshot: %d", code)
	}
}
