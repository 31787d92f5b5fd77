package core

import (
	"bytes"
	"testing"

	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/workload"
)

// runLedger executes one telemetered HeroServe run and returns the decision
// ledger plus its serialized bytes.
func runLedger(t *testing.T) (*decisions.Ledger, []byte, *telemetry.Hub) {
	t.Helper()
	in := inputs(t)
	hub := telemetry.New()
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{Telemetry: hub, SLA: &sla})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(20, 2))
	led := sys.DecisionLedger()
	if led == nil {
		t.Fatal("telemetered run has no decision ledger")
	}
	var buf bytes.Buffer
	if err := led.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return led, buf.Bytes(), hub
}

// TestCollectiveLedgerCounterfactualInvariant is the headline acceptance
// property: for every recorded policy-select, the chosen candidate's
// counterfactual cost in the ledger equals the audited cost of the decision
// bit for bit — not within a tolerance, but with ==.
func TestCollectiveLedgerCounterfactualInvariant(t *testing.T) {
	led, _, _ := runLedger(t)
	if led.NumCollective() == 0 {
		t.Fatal("no collective records")
	}
	multi := false
	for i := 0; i < led.NumCollective(); i++ {
		r := led.Collective(i)
		if len(r.Candidates) == 0 {
			t.Fatalf("record %d has no candidates", i)
		}
		if len(r.Candidates) > 1 {
			multi = true
		}
		if r.Chosen != r.Best {
			t.Errorf("record %d: chosen %d != best %d (Eq. 16 argmin violated)", i, r.Chosen, r.Best)
		}
		if r.Executed >= len(r.Candidates) {
			t.Fatalf("record %d: executed %d out of range", i, r.Executed)
		}
		// Bit-for-bit: the audited cost IS the counterfactual vector entry.
		if r.Actual != r.Candidates[r.Executed].CostSeconds {
			t.Errorf("record %d: actual %v != candidates[%d] %v",
				i, r.Actual, r.Executed, r.Candidates[r.Executed].CostSeconds)
		}
		if want := r.Actual - r.Candidates[r.Best].CostSeconds; r.Regret != want {
			t.Errorf("record %d: regret %v != actual-best %v", i, r.Regret, want)
		}
		if r.Reason == "table" {
			if r.Executed != r.Chosen {
				t.Errorf("record %d: table pick executed %d != chosen %d", i, r.Executed, r.Chosen)
			}
			if r.Regret != 0 {
				t.Errorf("record %d: table pick carries regret %v", i, r.Regret)
			}
		}
	}
	if !multi {
		t.Error("no record offered more than one candidate; the counterfactual vector is degenerate")
	}
}

// TestCollectiveLedgerDeterminism pins byte-identical ledgers across
// same-seed runs, and that the ledger counters land in the registry.
func TestCollectiveLedgerDeterminism(t *testing.T) {
	led, doc1, hub := runLedger(t)
	_, doc2, _ := runLedger(t)
	if !bytes.Equal(doc1, doc2) {
		t.Error("same-seed runs produced different ledger bytes")
	}

	if v, ok := hub.Metrics.Value("decision_records_total", decisions.KindCollective); !ok || v != float64(led.NumCollective()) {
		t.Errorf("decision_records_total{collective} = %v,%v, want %d", v, ok, led.NumCollective())
	}
	// The per-scheme regret counters must agree with re-summarizing the
	// ledger itself.
	sum := led.Summarize()
	for _, st := range sum.Schemes {
		v, ok := hub.Metrics.Value("policy_regret_seconds_total", st.Scheme)
		if !ok {
			t.Errorf("policy_regret_seconds_total{%s} missing", st.Scheme)
			continue
		}
		if diff := v - st.RegretSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("policy_regret_seconds_total{%s} = %g, ledger says %g", st.Scheme, v, st.RegretSeconds)
		}
	}
	if sum.Collective != led.NumCollective() {
		t.Errorf("summary counts %d of %d records", sum.Collective, led.NumCollective())
	}
}
