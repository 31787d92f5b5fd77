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

// ledgerDoc serializes a small two-kind ledger.
func ledgerDoc(t *testing.T) []byte {
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
	return buf.Bytes()
}

// TestServerDecisions drives /decisions: a JSON 404 before publication,
// then the published bytes verbatim whatever the query, and a later publish
// replaces them.
func TestServerDecisions(t *testing.T) {
	srv := telemetry.NewServer()
	srv.HandleDoc(decisions.Route, "decision ledger")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/decisions")
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte(`"no decision ledger published yet"`)) {
		t.Fatalf("/decisions before publish: status %d, body %s", resp.StatusCode, body)
	}

	doc := ledgerDoc(t)
	srv.Publish(decisions.Route, doc)
	for _, path := range []string{"/decisions", "/decisions?kind=scale&from=x&run=9"} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, body)
		}
		if !bytes.Equal(body, doc) {
			t.Errorf("%s did not serve the published bytes verbatim", path)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s content type %q", path, ct)
		}
	}

	next := []byte(`{"meta":{},"collective":[],"scale":[]}`)
	srv.Publish(decisions.Route, next)
	if _, body := get(t, ts.URL+"/decisions"); !bytes.Equal(body, next) {
		t.Errorf("/decisions after a second publish: %s", body)
	}
}
