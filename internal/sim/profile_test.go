package sim

import "testing"

// recProfiler records the Begin/End call sequence so tests can assert the
// engine brackets exactly the executed events.
type recProfiler struct {
	begins []Time
	ends   []int64
	next   int64
}

func (p *recProfiler) BeginEvent(at Time) int64 {
	p.begins = append(p.begins, at)
	p.next++
	return p.next
}

func (p *recProfiler) EndEvent(token int64) { p.ends = append(p.ends, token) }

func TestProfilerBracketsExecutedEvents(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func() *Engine
	}{
		{"wheel", NewEngine}, // the fast front, labelled as in benchEngines
		{"heap", NewReferenceEngine},
	} {
		t.Run(mk.name, func(t *testing.T) {
			eng := mk.fn()
			prof := &recProfiler{}
			eng.SetProfiler(prof)
			var order []Time
			eng.Post(1, func() { order = append(order, 1) })
			ev := eng.schedule(2, func() { order = append(order, 2) })
			eng.Post(3, func() { order = append(order, 3) })
			eng.Cancel(ev)
			eng.Run()
			if len(order) != 2 {
				t.Fatalf("executed %v, want [1 3]", order)
			}
			if len(prof.begins) != 2 || prof.begins[0] != 1 || prof.begins[1] != 3 {
				t.Fatalf("BeginEvent times = %v, want [1 3]", prof.begins)
			}
			if len(prof.ends) != 2 || prof.ends[0] != 1 || prof.ends[1] != 2 {
				t.Fatalf("EndEvent tokens = %v, want [1 2]", prof.ends)
			}
		})
	}
}

// TestProfilerDoesNotChangeOrder replays a cancel-heavy script with and
// without a profiler installed and requires an identical execution order.
func TestProfilerDoesNotChangeOrder(t *testing.T) {
	script := func(eng *Engine, prof Profiler) []int {
		if prof != nil {
			eng.SetProfiler(prof)
		}
		var got []int
		var evs []*Event
		for i := 0; i < 200; i++ {
			i := i
			at := Time(i%7) + Time(i)/100
			evs = append(evs, eng.schedule(at, func() { got = append(got, i) }))
		}
		for i := 0; i < len(evs); i += 3 {
			eng.Cancel(evs[i])
		}
		eng.Run()
		return got
	}
	plain := script(NewEngine(), nil)
	profiled := script(NewEngine(), &recProfiler{})
	if len(plain) != len(profiled) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(profiled))
	}
	for i := range plain {
		if plain[i] != profiled[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, plain[i], profiled[i])
		}
	}
}

func TestQueueStatsLazy(t *testing.T) {
	eng := NewEngine()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, eng.schedule(Time(i)*0.01, func() {}))
	}
	st := eng.QueueStats()
	if st.Live != 100 {
		t.Fatalf("Live = %d, want 100", st.Live)
	}
	for i := 0; i < 10; i++ {
		eng.Cancel(evs[i])
	}
	st = eng.QueueStats()
	if st.Live != 90 {
		t.Fatalf("Live after cancel = %d, want 90", st.Live)
	}
	if st.Cancelled != 10 {
		t.Fatalf("Cancelled = %d, want 10", st.Cancelled)
	}
	if st.Tombstones != 10 {
		t.Fatalf("Tombstones = %d, want 10", st.Tombstones)
	}
	eng.Run()
	st = eng.QueueStats()
	if st.Live != 0 || st.Tombstones != 0 {
		t.Fatalf("drained queue not empty: %+v", st)
	}
}

func TestQueueStatsCompactionCounter(t *testing.T) {
	eng := NewEngine()
	// Cancel far more events than remain live to force at least one
	// compaction pass (threshold: tombstones > 64 && tombstones > live).
	var evs []*Event
	for i := 0; i < 400; i++ {
		evs = append(evs, eng.schedule(1+Time(i)*0.001, func() {}))
	}
	for _, ev := range evs[:390] {
		eng.Cancel(ev)
	}
	st := eng.QueueStats()
	if st.Compactions == 0 {
		t.Fatalf("expected at least one compaction, got %+v", st)
	}
	if st.Cancelled != 390 {
		t.Fatalf("Cancelled = %d, want 390", st.Cancelled)
	}
	eng.Run()
}

func TestQueueStatsHeap(t *testing.T) {
	eng := NewReferenceEngine()
	var evs []*Event
	for i := 0; i < 50; i++ {
		evs = append(evs, eng.schedule(Time(i), func() {}))
	}
	eng.Cancel(evs[0])
	st := eng.QueueStats()
	if st.Live != 49 {
		t.Fatalf("heap stats = %+v, want Live=49", st)
	}
	if st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Tombstones != 0 || st.Compactions != 0 {
		t.Fatalf("heap front should have no lazy-front stats: %+v", st)
	}
}
