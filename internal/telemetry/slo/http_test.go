package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"heroserve/internal/telemetry"
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

// TestAlertsEndpoint: /alerts is a JSON 404 before publication, then serves
// the published log verbatim whatever the query, and /healthz reports the
// published roll-up.
func TestAlertsEndpoint(t *testing.T) {
	srv := telemetry.NewServer()
	srv.HandleDoc(Route, "alert log")
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

	for _, url := range []string{"/alerts", "/alerts?state=bogus&run=9"} {
		code, ct, body = getAlerts(t, ts.URL+url)
		if code != http.StatusOK || ct != "application/json; charset=utf-8" {
			t.Fatalf("%s: %d %q", url, code, ct)
		}
		if !bytes.Equal(body, doc) {
			t.Errorf("%s not verbatim:\n%s\n---\n%s", url, body, doc)
		}
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
}
