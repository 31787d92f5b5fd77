package telemetry

import "testing"

func TestHubReattachIdempotentPerProcess(t *testing.T) {
	h := New()
	evs := tapped(h.Trace)
	clock := func() float64 { return 0 }
	h.Attach(clock, "policy-A")
	n := h.Trace.Len() // process_name + thread_name metadata

	// Double-attach during setup (the documented "once per run" contract
	// violated): idempotent, no duplicate process.
	h.Attach(clock, "policy-A")
	if h.Trace.Len() != n {
		t.Errorf("double attach emitted %d extra events", h.Trace.Len()-n)
	}

	// The clock is still rebound on the idempotent path.
	h.Attach(func() float64 { return 7 }, "policy-A")
	if h.Now() != 7 {
		t.Errorf("Now = %g after idempotent re-attach, want 7", h.Now())
	}
	if h.Trace.Len() != n {
		t.Error("clock-only re-attach opened a new process")
	}

	// A different process name opens a fresh process.
	h.Attach(clock, "policy-B")
	if h.Trace.Len() != n+2 {
		t.Fatalf("new-name attach: Len = %d, want %d", h.Trace.Len(), n+2)
	}
	if (*evs)[n].Pid != 2 {
		t.Errorf("policy-B process pid = %d, want 2", (*evs)[n].Pid)
	}

	// The same name after real events is a genuine next run (e.g. two sweep
	// points of one system): it must NOT be merged into the old process.
	h.Trace.Instant(ControlTID, "test", "work", nil)
	h.Attach(clock, "policy-B")
	if h.Trace.Len() != n+5 {
		t.Fatalf("same-name attach after events: Len = %d, want %d", h.Trace.Len(), n+5)
	}
	if ev := (*evs)[len(*evs)-2]; ev.Pid != 3 {
		t.Errorf("post-work re-attach pid = %d, want 3", ev.Pid)
	}
}
