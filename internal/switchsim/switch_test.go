package switchsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixedRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 3.14159, -1234.5678} {
		got := FromFixed(ToFixed(f))
		if math.Abs(got-f) > 1.0/float64(int64(1)<<FixedShift) {
			t.Errorf("round trip of %g gave %g", f, got)
		}
	}
}

func TestFixedSaturation(t *testing.T) {
	if ToFixed(1e12) != math.MaxInt32 {
		t.Error("positive overflow did not saturate")
	}
	if ToFixed(-1e12) != math.MinInt32 {
		t.Error("negative overflow did not saturate")
	}
	if AddSat(math.MaxInt32, 1) != math.MaxInt32 {
		t.Error("AddSat positive overflow")
	}
	if AddSat(math.MinInt32, -1) != math.MinInt32 {
		t.Error("AddSat negative overflow")
	}
}

// Property: fixed-point aggregation is exact integer addition, so it is
// order-independent, and the dequantized sum is within n quantization steps
// of the float sum.
func TestQuickAggregationAccuracy(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 128.0
		}
		var floatSum float64
		acc := int32(0)
		for _, x := range xs {
			floatSum += x
			acc = AddSat(acc, ToFixed(x))
		}
		// Reverse order must agree exactly.
		acc2 := int32(0)
		for i := len(xs) - 1; i >= 0; i-- {
			acc2 = AddSat(acc2, ToFixed(xs[i]))
		}
		if acc != acc2 {
			return false
		}
		tol := float64(len(xs)) / float64(int64(1)<<FixedShift)
		return math.Abs(FromFixed(acc)-floatSum) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeDequantizeVectors(t *testing.T) {
	xs := []float64{0.25, -0.5, 3}
	q := QuantizeVector(xs)
	d := DequantizeVector(q)
	for i := range xs {
		if math.Abs(d[i]-xs[i]) > 1e-4 {
			t.Errorf("vector round trip [%d]: %g vs %g", i, xs[i], d[i])
		}
	}
}

func mustRegister(t *testing.T, s *Switch, job JobID, mode Mode, fanIn, want int) int {
	t.Helper()
	n, err := s.RegisterJob(job, mode, fanIn, want)
	if err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}
	return n
}

func TestSyncAggregationRound(t *testing.T) {
	s := New("sw", 8, 16) // 4 elements per entry
	if got := mustRegister(t, s, 1, ModeSync, 3, 2); got != 2 {
		t.Fatalf("granted %d slots, want 2", got)
	}
	contribute := func(worker int) (Verdict, []int32) {
		return s.Ingest(Packet{Job: 1, Seq: 0, Worker: worker, Values: []int32{int32(worker + 1), 10}})
	}
	if v, _ := contribute(0); v != VerdictAbsorbed {
		t.Fatalf("first contribution: %v", v)
	}
	if v, _ := contribute(1); v != VerdictAbsorbed {
		t.Fatalf("second contribution: %v", v)
	}
	v, out := contribute(2)
	if v != VerdictComplete {
		t.Fatalf("third contribution: %v, want complete", v)
	}
	if out[0] != 1+2+3 || out[1] != 30 {
		t.Errorf("aggregate = %v, want [6 30]", out)
	}
	// The slot is free again: the same seq can run a new round.
	if v, _ := contribute(0); v != VerdictAbsorbed {
		t.Errorf("slot not recycled after completion: %v", v)
	}
	c := s.Counters()
	if c.Aggregates != 1 || c.PacketsIn != 4 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSyncDuplicateContributionIsStale(t *testing.T) {
	s := New("sw", 4, 16)
	mustRegister(t, s, 1, ModeSync, 2, 1)
	s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{5}})
	v, _ := s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{5}})
	if v != VerdictStale {
		t.Errorf("duplicate = %v, want stale", v)
	}
	// The retransmission must not corrupt the sum.
	v, out := s.Ingest(Packet{Job: 1, Seq: 0, Worker: 1, Values: []int32{7}})
	if v != VerdictComplete || out[0] != 12 {
		t.Errorf("after dup: %v %v, want complete [12]", v, out)
	}
}

func TestSyncWindowCollisionDrops(t *testing.T) {
	s := New("sw", 4, 16)
	mustRegister(t, s, 1, ModeSync, 2, 1) // window of exactly 1 slot
	s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{1}})
	// Seq 1 maps to the same single slot, which is busy with seq 0.
	v, _ := s.Ingest(Packet{Job: 1, Seq: 1, Worker: 0, Values: []int32{1}})
	if v != VerdictDrop {
		t.Errorf("colliding round = %v, want drop", v)
	}
	if s.Counters().Drops != 1 {
		t.Errorf("drop counter = %d", s.Counters().Drops)
	}
}

func TestSyncPoolExhaustion(t *testing.T) {
	s := New("sw", 4, 16)
	if got := mustRegister(t, s, 1, ModeSync, 2, 3); got != 3 {
		t.Fatalf("granted %d", got)
	}
	if got := mustRegister(t, s, 2, ModeSync, 2, 3); got != 1 {
		t.Errorf("second job granted %d, want remaining 1", got)
	}
	if got := mustRegister(t, s, 3, ModeSync, 2, 3); got != 0 {
		t.Errorf("third job granted %d, want 0", got)
	}
	// A job with no slots can never aggregate.
	if v, _ := s.Ingest(Packet{Job: 3, Seq: 0, Worker: 0, Values: []int32{1}}); v != VerdictDrop {
		t.Errorf("zero-window job ingest = %v, want drop", v)
	}
	s.ReleaseJob(1)
	if s.FreeSlots() != 3 {
		t.Errorf("FreeSlots after release = %d, want 3", s.FreeSlots())
	}
}

func TestRegisterJobErrors(t *testing.T) {
	s := New("sw", 4, 16)
	if _, err := s.RegisterJob(1, ModeSync, 0, 1); err == nil {
		t.Error("fan-in 0 accepted")
	}
	if _, err := s.RegisterJob(1, ModeSync, 65, 1); err == nil {
		t.Error("fan-in 65 accepted")
	}
	mustRegister(t, s, 1, ModeSync, 2, 1)
	if _, err := s.RegisterJob(1, ModeSync, 2, 1); err == nil {
		t.Error("duplicate job accepted")
	}
	// Unknown job ingest drops.
	if v, _ := s.Ingest(Packet{Job: 99, Seq: 0, Worker: 0}); v != VerdictDrop {
		t.Error("unknown job should drop")
	}
	// Out-of-range worker drops.
	if v, _ := s.Ingest(Packet{Job: 1, Seq: 0, Worker: 7}); v != VerdictDrop {
		t.Error("out-of-range worker should drop")
	}
}

func TestAsyncSharedPoolContention(t *testing.T) {
	s := New("sw", 2, 16) // tiny pool to force collisions
	mustRegister(t, s, 1, ModeAsync, 1, 0)
	mustRegister(t, s, 2, ModeAsync, 1, 0)
	// Many single-worker rounds from two jobs over a 2-slot pool: some
	// complete, and with distinct seqs hashing around, collisions produce
	// drops only when two in-flight rounds hash together. Here each round
	// completes immediately (fanIn=1), so all should complete.
	for seq := int64(0); seq < 64; seq++ {
		for _, job := range []JobID{1, 2} {
			v, _ := s.Ingest(Packet{Job: job, Seq: seq, Worker: 0, Values: []int32{1}})
			if v != VerdictComplete {
				t.Fatalf("fan-in-1 round job %d seq %d: %v", job, seq, v)
			}
		}
	}
	// With fanIn=2 rounds left half-open, a colliding round must drop.
	s2 := New("sw2", 1, 16)
	mustRegister(t, s2, 7, ModeAsync, 2, 0)
	if v, _ := s2.Ingest(Packet{Job: 7, Seq: 0, Worker: 0, Values: []int32{1}}); v != VerdictAbsorbed {
		t.Fatal("first half-round should absorb")
	}
	if v, _ := s2.Ingest(Packet{Job: 7, Seq: 1, Worker: 0, Values: []int32{1}}); v != VerdictDrop {
		t.Error("colliding async round should drop (fall back to host)")
	}
}

func TestReleaseAsyncClearsInFlight(t *testing.T) {
	s := New("sw", 4, 16)
	mustRegister(t, s, 1, ModeAsync, 2, 0)
	s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{1}})
	s.ReleaseJob(1)
	// Re-register and reuse the same seq: the old half-round must be gone.
	mustRegister(t, s, 1, ModeAsync, 2, 0)
	v, _ := s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{1}})
	if v != VerdictAbsorbed {
		t.Errorf("stale slot survived release: %v", v)
	}
	// Releasing an unknown job is a no-op.
	s.ReleaseJob(42)
}

func TestVariableLengthTailChunk(t *testing.T) {
	s := New("sw", 4, 16)
	mustRegister(t, s, 1, ModeSync, 2, 1)
	// Worker 0 sends 2 elements, worker 1 sends 3: result is elementwise sum
	// over the longer length.
	s.Ingest(Packet{Job: 1, Seq: 0, Worker: 0, Values: []int32{1, 1}})
	v, out := s.Ingest(Packet{Job: 1, Seq: 0, Worker: 1, Values: []int32{2, 2, 2}})
	if v != VerdictComplete {
		t.Fatalf("verdict %v", v)
	}
	if len(out) != 3 || out[0] != 3 || out[1] != 3 || out[2] != 2 {
		t.Errorf("aggregate = %v, want [3 3 2]", out)
	}
}

// Property: for random fan-in and random contribution order, a sync round
// always completes exactly once with the exact integer sum.
func TestQuickSyncRoundExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		fanIn := rng.Intn(8) + 1
		s := New("sw", 4, 16)
		mustRegister(t, s, 1, ModeSync, fanIn, 2)
		order := rng.Perm(fanIn)
		var want int64
		completions := 0
		var got []int32
		for _, w := range order {
			val := int32(rng.Intn(1000) - 500)
			want += int64(val)
			v, out := s.Ingest(Packet{Job: 1, Seq: 3, Worker: w, Values: []int32{val}})
			if v == VerdictComplete {
				completions++
				got = out
			}
		}
		if completions != 1 {
			t.Fatalf("trial %d: %d completions", trial, completions)
		}
		if int64(got[0]) != want {
			t.Fatalf("trial %d: sum %d, want %d", trial, got[0], want)
		}
	}
}

func TestSyncGoodput(t *testing.T) {
	// Window-limited: 8 slots x 256 B / 10 us = 204.8 MB/s.
	got := SyncGoodput(8, 256, 10e-6, 12.5e9)
	if math.Abs(got-204.8e6) > 1 {
		t.Errorf("goodput = %g, want 204.8e6", got)
	}
	// Link-limited when the window is huge.
	if got := SyncGoodput(1<<20, 256, 10e-6, 12.5e9); got != 12.5e9 {
		t.Errorf("link-limited goodput = %g", got)
	}
	if SyncGoodput(0, 256, 10e-6, 1e9) != 0 {
		t.Error("zero window should give zero goodput")
	}
	if SyncGoodput(8, 256, 0, 1e9) != 0 {
		t.Error("zero rtt should give zero goodput")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero slot pool did not panic")
		}
	}()
	New("sw", 0, 16)
}

func TestEntryAccessors(t *testing.T) {
	s := New("sw", 4, 0) // falls back to default entry size
	if s.EntryBytes() != DefaultEntryBytes {
		t.Errorf("EntryBytes = %d, want default %d", s.EntryBytes(), DefaultEntryBytes)
	}
	if s.EntryElems() != DefaultEntryBytes/4 {
		t.Errorf("EntryElems = %d", s.EntryElems())
	}
	if s.name != "sw" || s.PoolSize() != 4 {
		t.Error("accessors wrong")
	}
	if ModeSync.String() != "sync" || ModeAsync.String() != "async" {
		t.Error("mode strings")
	}
	for v, want := range map[Verdict]string{
		VerdictAbsorbed: "absorbed", VerdictComplete: "complete",
		VerdictDrop: "drop", VerdictStale: "stale",
	} {
		if v.String() != want {
			t.Errorf("verdict %d = %q", v, v.String())
		}
	}
}

func BenchmarkSyncIngest(b *testing.B) {
	s := New("sw", 64, 256)
	s.RegisterJob(1, ModeSync, 4, 32)
	vals := make([]int32, 64)
	for i := range vals {
		vals[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i / 4)
		worker := i % 4
		s.Ingest(Packet{Job: 1, Seq: seq, Worker: worker, Values: vals})
	}
}
