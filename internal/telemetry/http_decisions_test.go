package telemetry_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
)

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

// ledgerDoc serializes a small two-kind ledger for the endpoint tests.
func ledgerDoc(t *testing.T) ([]byte, *decisions.Ledger) {
	t.Helper()
	l := decisions.NewLedger()
	l.AddCollective(decisions.CollectiveRecord{
		T: 1, Group: "decode/0/0",
		Candidates: []decisions.CollectiveCandidate{{Label: "r0", Scheme: "ring", CostJ: 2, CostSeconds: 0.2}},
		Scheme:     "ring", Reason: "table", Actual: 0.2,
	})
	l.AddCollective(decisions.CollectiveRecord{
		T: 5, Group: "decode/0/0",
		Candidates: []decisions.CollectiveCandidate{{Label: "s0", Scheme: "ina-sync", CostJ: 1, CostSeconds: 0.1}},
		Scheme:     "ina-sync", Reason: "table", Actual: 0.1,
	})
	l.AddScale(decisions.ScaleRecord{
		T: 2, Primary: "backlog", Decision: "hold", Applied: "none", Instance: -1,
	})
	l.SetEnd(10)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), l
}

// TestServerDecisions drives /decisions: 404 before publication, verbatim
// bytes without filters, server-side filtering, per-run snapshots, and the
// error paths.
func TestServerDecisions(t *testing.T) {
	srv := telemetry.NewServer()
	decisions.InstallDecisions(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := get(t, ts.URL+"/decisions")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/decisions before publish: status %d, want 404", resp.StatusCode)
	}

	doc, _ := ledgerDoc(t)
	srv.Publish(decisions.Route, doc)

	resp, body := get(t, ts.URL+"/decisions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decisions status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, doc) {
		t.Error("unfiltered /decisions did not serve the published bytes verbatim")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}

	decode := func(body []byte) *decisions.Ledger {
		led, err := decisions.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("filtered response not a ledger: %v", err)
		}
		return led
	}
	_, body = get(t, ts.URL+"/decisions?kind=scale")
	if led := decode(body); led.NumCollective() != 0 || led.NumScale() != 1 {
		t.Errorf("kind=scale returned %d/%d records", led.NumCollective(), led.NumScale())
	}
	_, body = get(t, ts.URL+"/decisions?policy=ina-sync")
	if led := decode(body); led.NumCollective() != 1 || led.Collective(0).Scheme != "ina-sync" {
		t.Errorf("policy=ina-sync returned %d records", led.NumCollective())
	}
	_, body = get(t, ts.URL+"/decisions?kind=collective&from=2&to=6")
	if led := decode(body); led.NumCollective() != 1 || led.Collective(0).T != 5 {
		t.Errorf("time filter returned %d records", led.NumCollective())
	}

	for path, want := range map[string]int{
		"/decisions?kind=bogus": http.StatusBadRequest,
		"/decisions?from=x":     http.StatusBadRequest,
		"/decisions?to=x":       http.StatusBadRequest,
		"/decisions?run=9":      http.StatusNotFound,
		"/decisions?run=x":      http.StatusNotFound,
	} {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != want {
			t.Errorf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Per-run snapshots: AddRun captures the ledger published before it.
	h := telemetry.New()
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(telemetry.RunSummary{System: "heroserve"})
	srv.Publish(decisions.Route, []byte(`{"meta":{},"collective":[],"scale":[]}`))
	if err := srv.PublishHub(h); err != nil {
		t.Fatal(err)
	}
	srv.AddRun(telemetry.RunSummary{System: "distserve"})

	_, body = get(t, ts.URL+"/decisions?run=1")
	if !bytes.Equal(body, doc) {
		t.Error("run=1 did not serve the first run's ledger snapshot")
	}
	_, body = get(t, ts.URL+"/decisions?run=2&kind=scale")
	if led := decode(body); led.Len() != 0 {
		t.Errorf("run=2 filtered ledger has %d records, want 0", led.Len())
	}
}
