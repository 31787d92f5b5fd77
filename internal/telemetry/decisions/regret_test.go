package decisions

import "testing"

func TestRegretWindowChargesAndEvicts(t *testing.T) {
	meta := ScaleMeta{Fleet: 3, InitialActive: 1, MinActive: 1, GPUsPerInstance: 4}
	rw := NewRegretWindow(meta)
	rw.Observe(&ScaleRecord{
		T:       1,
		Applied: "activate", // actual committed fleet: 1 + 1 = 2
		Signals: ScaleSignalsRec{Active: 1, Backlog: 5},
		Shadows: []ShadowDecision{
			{Law: "a", Decision: "scale_out"}, // replayed fleet matches: 2
			{Law: "b", Decision: "hold"},      // undershoots with a live backlog
		},
		Outcome: &Outcome{Horizon: 1, Completed: 4, Met: 3},
	})
	reg := rw.Regret()
	if len(reg) != 2 || reg[0].Law != "a" || reg[1].Law != "b" {
		t.Fatalf("regret = %+v, want laws a, b", reg)
	}
	// Law a kept up with the actual fleet: charged only the real misses.
	if reg[0].ChargedMisses != 1 || reg[0].Completed != 4 || reg[0].GPUSeconds != 8 {
		t.Errorf("a = %+v, want 1 charged, 4 completed, 8 GPU-seconds", reg[0])
	}
	// Law b undershot the fleet while requests queued: every completion in
	// the window is charged against it.
	if reg[1].ChargedMisses != 4 || reg[1].GPUSeconds != 4 {
		t.Errorf("b = %+v, want 4 charged, 4 GPU-seconds", reg[1])
	}

	// A record beyond the window span evicts the old entry; without an
	// outcome it contributes nothing itself, so the sums drain to zero while
	// the committed-fleet replay still advances.
	rw.Observe(&ScaleRecord{
		T:       20,
		Applied: "none",
		Signals: ScaleSignalsRec{Active: 2},
		Shadows: []ShadowDecision{
			{Law: "a", Decision: "hold"},
			{Law: "b", Decision: "hold"},
		},
	})
	for _, r := range rw.Regret() {
		if r.ChargedMisses != 0 || r.Completed != 0 || r.GPUSeconds != 0 {
			t.Errorf("%s after eviction = %+v, want zeros", r.Law, r)
		}
	}
}

func TestRegretWindowNilSafety(t *testing.T) {
	var rw *RegretWindow
	rw.Observe(&ScaleRecord{T: 1}) // must not panic
	if rw.Regret() != nil {
		t.Error("nil window returned regret")
	}
	rw = NewRegretWindow(ScaleMeta{})
	rw.Observe(nil)
	if rw.Regret() != nil {
		t.Error("empty window returned regret before any record")
	}
}
