package perf

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

func get(t *testing.T, srv *telemetry.Server, path string) (int, string) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestPerfEndpoint(t *testing.T) {
	srv := telemetry.NewServer()
	srv.HandleDoc(Route, "perf report")

	code, _ := get(t, srv, "/perf")
	if code != 404 {
		t.Fatalf("/perf before publish: code %d, want 404", code)
	}

	s, _ := newTestSampler(2)
	s.Start(0)
	for i := 0; i < 8; i++ {
		s.EndEvent(s.BeginEvent(float64(i)))
	}
	s.Finish(8)
	var buf bytes.Buffer
	if err := s.Report("unit").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	srv.Publish(Route, buf.Bytes())
	code, body := get(t, srv, "/perf")
	if code != 200 {
		t.Fatalf("/perf after publish: code %d", code)
	}
	if !strings.Contains(body, Schema) || !strings.Contains(body, `"events": 8`) {
		t.Fatalf("unexpected /perf body: %s", body)
	}
}

// TestPprofGating is the satellite's contract: /debug/pprof/ must 404 on a
// daemon without -pprof and serve the index once installed.
func TestPprofGating(t *testing.T) {
	srv := telemetry.NewServer()
	if code, _ := get(t, srv, "/debug/pprof/"); code != 404 {
		t.Fatalf("pprof disabled: code %d, want 404", code)
	}

	InstallPprof(srv)
	code, body := get(t, srv, "/debug/pprof/")
	if code != 200 {
		t.Fatalf("pprof enabled: code %d, want 200", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index missing profiles: %s", body)
	}
	// Subtree paths route through the prefix handler.
	if code, _ := get(t, srv, "/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Fatalf("pprof goroutine profile: code %d, want 200", code)
	}
	// Built-in routes still win over the prefix fallback.
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Fatalf("healthz broken by prefix routing: code %d", code)
	}
}
