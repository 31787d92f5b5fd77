package telemetry

// Hub bundles a metrics Registry and a span Tracer behind one sim-clock. A Hub
// is created clockless by the CLI (the discrete-event engine does not exist
// yet) and bound to an engine by serving.New via Attach. cmd/heroserve runs
// many systems against one Hub: each run re-attaches, starting a fresh trace
// process named after its policy, while metrics accumulate across runs.
type Hub struct {
	Metrics *Registry
	Trace   *Tracer
	clock   func() float64

	// Double-attach guard: the process name of the current trace process and
	// the tracer length right after it was opened. A re-attach with the same
	// name before any further events is idempotent.
	attachedProcess string
	attachedLen     int
}

// New returns an unattached Hub. Until Attach is called the clock reads zero.
func New() *Hub {
	h := &Hub{clock: func() float64 { return 0 }}
	h.Metrics = NewRegistry(h.Now)
	h.Trace = NewTracer(h.Now)
	return h
}

// Now returns the current sim-time in seconds (0 before Attach).
func (h *Hub) Now() float64 {
	if h == nil {
		return 0
	}
	return h.clock()
}

// Attach binds the hub to a run: clock is the engine's Now, process names the
// trace process (the serving policy). Re-attach is idempotent per process
// name: attaching again with the same name before any further trace events
// only rebinds the clock instead of opening a duplicate process (guarding
// setup paths that attach twice). A new name — or the same name after events
// have been recorded, i.e. a genuine next run — opens a fresh process.
func (h *Hub) Attach(clock func() float64, process string) {
	if h == nil {
		return
	}
	h.clock = clock
	if process == h.attachedProcess && h.Trace.Len() == h.attachedLen {
		return
	}
	h.Trace.BeginProcess(process)
	h.Trace.ThreadName(ControlTID, "control-plane")
	h.attachedProcess = process
	h.attachedLen = h.Trace.Len()
}
