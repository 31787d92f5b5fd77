package telemetry_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
)

// TestServerRunRetention pins the -max-runs behavior: AddRun evicts the
// oldest runs past the cap, surviving runs keep their original IDs, and the
// run-addressed endpoints report the retained window in their 404s.
func TestServerRunRetention(t *testing.T) {
	srv := telemetry.NewServer()
	decisions.InstallDecisions(srv)
	srv.SetMaxRuns(2)
	h := telemetry.New()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctr := h.Metrics.Counter("retention_test_total", "t", nil)
	totalEvicted := 0
	for i := 1; i <= 4; i++ {
		ctr.Inc()
		if err := srv.PublishHub(h); err != nil {
			t.Fatal(err)
		}
		evicted := srv.AddRun(telemetry.RunSummary{System: "test", Policy: fmt.Sprintf("p%d", i)})
		wantEvicted := 0
		if i > 2 {
			wantEvicted = 1
		}
		if evicted != wantEvicted {
			t.Errorf("AddRun %d evicted %d, want %d", i, evicted, wantEvicted)
		}
		totalEvicted += evicted
	}
	if totalEvicted != 2 {
		t.Fatalf("total evicted %d", totalEvicted)
	}

	// /runs serves only the survivors, under their original IDs.
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs []telemetry.RunSummary
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(runs) != 2 || runs[0].ID != 3 || runs[1].ID != 4 {
		t.Fatalf("retained runs: %+v", runs)
	}
	if runs[0].Policy != "p3" || runs[1].Policy != "p4" {
		t.Errorf("run identity shifted under eviction: %+v", runs)
	}

	// Diffing the survivors still works and isolates one run's contribution.
	resp, err = http.Get(ts.URL + "/runs/diff?a=3&b=4")
	if err != nil {
		t.Fatal(err)
	}
	var diff telemetry.RunsDiff
	if err := json.NewDecoder(resp.Body).Decode(&diff); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, c := range diff.Changed {
		if c.Series == "retention_test_total" && c.A == 3 && c.B == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("diff of surviving runs lost the counter: %+v", diff.Changed)
	}

	// Addressing an evicted run is a JSON 404 naming the retained window.
	for _, url := range []string{"/runs/diff?a=1&b=4", "/decisions?run=2"} {
		resp, err = http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d", url, resp.StatusCode)
		}
		if e["error"] != "run out of range: have runs 3..4" {
			t.Errorf("%s: error %q", url, e["error"])
		}
	}

	// /healthz reports the eviction count.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Runs    int    `json:"runs"`
		Evicted int    `json:"evicted_runs"`
		Worst   string `json:"worst_alert_severity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Runs != 2 || hz.Evicted != 2 || hz.Worst != "none" {
		t.Errorf("healthz: %+v", hz)
	}
}

// TestServerHealthzDegraded pins the alert roll-up in /healthz: publishing a
// firing set degrades the status and surfaces the worst severity.
func TestServerHealthzDegraded(t *testing.T) {
	srv := telemetry.NewServer()
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
