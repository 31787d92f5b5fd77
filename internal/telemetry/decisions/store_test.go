package decisions

import (
	"runtime"
	"testing"
)

// appender returns a ledger with one three-candidate table and a func that
// appends one pick to it.
func appender() (*Ledger, func()) {
	l := NewLedger()
	tab := l.RegisterTable("decode/1/0", []string{"ring", "ina@tofino0", "hetero@tofino0"},
		[]string{"ring", "ina-sync", "ina-hetero"})
	costs := []float64{3e-5, 2e-5, 4e-5}
	t := 0.0
	return l, func() {
		t += 0.01
		l.AddPick(Pick{
			T: t, Table: tab, Bytes: 819200, Steps: 80, Costs: costs, Window: 0.1,
			Chosen: 1, Best: 1, Executed: 1, Scheme: "ina-sync", Reason: "table", Actual: 2e-6,
		})
	}
}

// TestLedgerAddAllocs pins the columnar store's point: a warm ledger
// allocates only a new chunk per chunk of picks. AllocsPerRun rounds down to
// whole allocations, so the amortized rate is counted from the runtime's
// malloc total.
func TestLedgerAddAllocs(t *testing.T) {
	_, add := appender()
	add()
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.01 {
		t.Errorf("AddPick: %.4f allocs per append, want under 0.01", per)
	}
}

// TestAddScalePointerOutlivesGrowth: the record AddScale returns stays the
// stored one while later appends open new chunks, so the autoscaler's
// Outcome stamp lands in the ledger.
func TestAddScalePointerOutlivesGrowth(t *testing.T) {
	l := NewLedger()
	first := l.AddScale(ScaleRecord{T: 0, Decision: "none"})
	for i := 1; i < 3*scaleChunk; i++ {
		l.AddScale(ScaleRecord{T: float64(i)})
	}
	first.Outcome = &Outcome{Completed: 7}
	if got := l.Scale(0).Outcome; got == nil || got.Completed != 7 {
		t.Error("AddScale pointer detached from the ledger")
	}
	if l.NumScale() != 3*scaleChunk || l.Scale(3*scaleChunk-1).T != 3*scaleChunk-1 {
		t.Errorf("ledger holds %d scale records", l.NumScale())
	}
	var n *Ledger
	if n.AddScale(ScaleRecord{}) != nil {
		t.Error("nil ledger returned a record")
	}
}

// BenchmarkLedgerAdd times one pick's append.
func BenchmarkLedgerAdd(b *testing.B) {
	_, add := appender()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add()
	}
}
