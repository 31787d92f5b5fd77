package decisions

import "testing"

// TestLedgerRetentionCap pins SetCap/SetOnEvict: each record kind is bounded
// independently, the oldest records are dropped, the eviction observer sees
// per-kind counts, and AddScale's returned pointer addresses the stored copy
// even when the append itself evicted.
func TestLedgerRetentionCap(t *testing.T) {
	l := NewLedger()
	l.SetCap(3)
	evicted := map[string]int{}
	l.SetOnEvict(func(kind string, n int) { evicted[kind] += n })

	for i := 0; i < 5; i++ {
		l.AddCollective(CollectiveRecord{T: float64(i), Group: "g"})
	}
	if l.NumCollective() != 3 {
		t.Fatalf("collective retained %d", l.NumCollective())
	}
	if l.Collective(0).T != 2 || l.Collective(2).T != 4 {
		t.Errorf("collective tail wrong: %+v %+v", l.Collective(0), l.Collective(2))
	}
	if evicted[KindCollective] != 2 {
		t.Errorf("collective evictions: %v", evicted)
	}

	var last *ScaleRecord
	for i := 0; i < 5; i++ {
		last = l.AddScale(ScaleRecord{T: float64(i), Decision: "none"})
	}
	if l.NumScale() != 3 || l.Scale(0).T != 2 {
		t.Fatalf("scale retained %d, oldest at t=%g", l.NumScale(), l.Scale(0).T)
	}
	if evicted[KindScale] != 2 {
		t.Errorf("scale evictions: %v", evicted)
	}
	// The pointer returned by the evicting Add still addresses the newest
	// stored record, so the autoscaler's Outcome stamp lands.
	last.Outcome = &Outcome{Completed: 7}
	if got := l.Scale(l.NumScale() - 1).Outcome; got == nil || got.Completed != 7 {
		t.Errorf("AddScale pointer detached from the ledger")
	}

	// Uncapped ledgers never evict and never call the observer.
	u := NewLedger()
	calls := 0
	u.SetOnEvict(func(string, int) { calls++ })
	for i := 0; i < 10; i++ {
		u.AddCollective(CollectiveRecord{T: float64(i)})
		u.AddScale(ScaleRecord{T: float64(i)})
	}
	if u.NumCollective() != 10 || u.NumScale() != 10 || calls != 0 {
		t.Errorf("uncapped ledger evicted: %d/%d records, %d calls",
			u.NumCollective(), u.NumScale(), calls)
	}

	// Nil-safety mirrors the rest of the ledger API.
	var n *Ledger
	n.SetCap(1)
	n.SetOnEvict(func(string, int) {})
	n.AddCollective(CollectiveRecord{})
	if n.AddScale(ScaleRecord{}) != nil {
		t.Error("nil ledger returned a record")
	}
}
