package critpath

import (
	"math"
	"math/rand"
	"testing"
)

func TestShareTrackerDominantAndEviction(t *testing.T) {
	tr := NewShareTracker()
	if d, s := tr.Dominant(); d != "" || s != 0 {
		t.Fatalf("empty tracker dominant = %q,%g", d, s)
	}
	tr.Observe(Breakdown{TTFTStages: map[string]float64{StageQueue: 3, StagePrefillCompute: 1}})
	if d, s := tr.Dominant(); d != StageQueue || s != 0.75 {
		t.Errorf("dominant = %q,%g, want queue,0.75", d, s)
	}
	if s := tr.Share(StageQueue); s != 0.75 {
		t.Errorf("queue share = %g, want 0.75", s)
	}
	tr.Observe(Breakdown{TTFTStages: map[string]float64{StagePrefillCompute: 5}})
	if d, s := tr.Dominant(); d != StagePrefillCompute || s != 6.0/9.0 {
		t.Errorf("dominant = %q,%g, want prefill-compute,2/3", d, s)
	}
	// Fill the window: the queue-heavy first request is still in it.
	for tr.Len() < shareWindow {
		tr.Observe(Breakdown{TTFTStages: map[string]float64{StagePrefillCompute: 1}})
	}
	if s := tr.Share(StageQueue); s != 3.0/39.0 {
		t.Errorf("queue share in a full window = %g, want 3/39", s)
	}
	// The 33rd request evicts the first.
	tr.Observe(Breakdown{TTFTStages: map[string]float64{StagePrefillCompute: 1}})
	if tr.Len() != shareWindow {
		t.Errorf("len = %d, want %d", tr.Len(), shareWindow)
	}
	if s := tr.Share(StageQueue); s != 0 {
		t.Errorf("queue share after eviction = %g, want 0", s)
	}
	if d, s := tr.Dominant(); d != StagePrefillCompute || s != 1 {
		t.Errorf("dominant after eviction = %q,%g, want prefill-compute,1", d, s)
	}
}

func TestShareTrackerNilSafety(t *testing.T) {
	var tr *ShareTracker
	tr.Observe(Breakdown{}) // must not panic
	if tr.Len() != 0 || tr.Share(StageQueue) != 0 {
		t.Error("nil tracker reported mass")
	}
	if d, s := tr.Dominant(); d != "" || s != 0 {
		t.Errorf("nil tracker dominant = %q,%g", d, s)
	}
}

// TestShareTrackerDominantMemo: over a seeded random interleaving of Observe
// and Dominant, the memoized answer equals an uncached recomputation on the
// same window every time. Masses are small integers so ties are common (they
// break in canonical stage order), and runs of a window's worth of zero-mass
// requests drain the window to empty. A warm Dominant allocates nothing.
func TestShareTrackerDominantMemo(t *testing.T) {
	stages := []string{"zz-custom", StageDecodeCompute, StageKVTransfer, StageAllReduce("ring"), StagePrefillCompute, StageQueue}
	rng := rand.New(rand.NewSource(5))
	tr := NewShareTracker()
	ties, empties := 0, 0
	for step := 0; step < 2000; step++ {
		switch rng.Intn(8) {
		case 0:
			for i := 0; i < shareWindow; i++ {
				tr.Observe(Breakdown{TTFTStages: map[string]float64{StageQueue: 0}})
			}
			continue
		case 1, 2:
			m := map[string]float64{}
			for _, s := range stages {
				if rng.Intn(3) == 0 {
					m[s] = float64(rng.Intn(3))
				}
			}
			tr.Observe(Breakdown{TTFTStages: m})
			continue
		}
		gotD, gotS := tr.Dominant()
		wantD, wantS := tr.dominant()
		if gotD != wantD || math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("step %d: Dominant = %q,%v, uncached %q,%v", step, gotD, gotS, wantD, wantS)
		}
		if wantD == "" {
			empties++
		}
		best := 0.0
		for _, s := range stages {
			best = math.Max(best, tr.sums[s])
		}
		n := 0
		for _, s := range stages {
			if tr.sums[s] == best {
				n++
			}
		}
		if best > 0 && n > 1 {
			ties++
		}
	}
	if ties == 0 || empties == 0 {
		t.Fatalf("interleaving saw %d ties and %d empty windows, want both", ties, empties)
	}
	tr.Observe(Breakdown{TTFTStages: map[string]float64{StageQueue: 1}})
	tr.Dominant()
	if allocs := testing.AllocsPerRun(100, func() { tr.Dominant() }); allocs != 0 {
		t.Errorf("warm Dominant allocates %v objects, want 0", allocs)
	}
}
