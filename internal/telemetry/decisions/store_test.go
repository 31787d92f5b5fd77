package decisions

import (
	"runtime"
	"testing"
)

// appender returns a ledger capped at limit (0: uncapped) with one
// three-candidate table, and a func that appends one pick to it.
func appender(limit int) (*Ledger, func()) {
	l := NewLedger()
	l.SetCap(limit)
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

// TestLedgerAddAllocs pins the columnar store's point: once warm, a capped
// ledger appends and evicts a pick or a scale record without allocating,
// and an uncapped one allocates only a new chunk per chunk of picks.
func TestLedgerAddAllocs(t *testing.T) {
	l, add := appender(1000)
	for i := 0; i < 3*collectiveChunk; i++ {
		add()
	}
	if got := testing.AllocsPerRun(5000, add); got != 0 {
		t.Errorf("capped AddPick: %v allocs per append, want 0", got)
	}
	rec := ScaleRecord{Primary: "backlog", Shadows: []ShadowDecision{{Law: "backlog", Decision: "hold"}}}
	addScale := func() { l.AddScale(rec) }
	for i := 0; i < 1000+3*scaleChunk; i++ {
		addScale()
	}
	if got := testing.AllocsPerRun(5000, addScale); got != 0 {
		t.Errorf("capped AddScale: %v allocs per append, want 0", got)
	}
	if l.NumCollective() != 1000 || l.NumScale() != 1000 {
		t.Fatalf("capped ledger holds %d/%d records", l.NumCollective(), l.NumScale())
	}

	// AllocsPerRun rounds down to whole allocations, so the amortized
	// uncapped rate is counted from the runtime's malloc total.
	_, add = appender(0)
	add()
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.01 {
		t.Errorf("uncapped AddPick: %.4f allocs per append, want under 0.01", per)
	}
}

// BenchmarkLedgerAdd times one pick's append, uncapped and at two caps: an
// eviction only advances the head, so a capped append costs what an
// uncapped one does.
func BenchmarkLedgerAdd(b *testing.B) {
	for _, c := range []struct {
		name  string
		limit int
	}{{"uncapped", 0}, {"cap=1000", 1000}, {"cap=50000", 50000}} {
		b.Run(c.name, func(b *testing.B) {
			_, add := appender(c.limit)
			for i := 0; i < c.limit; i++ {
				add()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add()
			}
		})
	}
}
