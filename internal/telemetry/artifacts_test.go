package telemetry

import (
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

// TestArtifactsCloseTheSpanFileOnStreamErrors: the span file is closed on
// every path that gives up on it. Finish closes it when CloseStream fails
// (a NaN Num makes the stream's first error), and Start closes it when
// StreamTo refuses the tracer; both return the error. A second Close then
// reports the file already closed.
func TestArtifactsCloseTheSpanFileOnStreamErrors(t *testing.T) {
	a := &Artifacts{Hub: New(), Dir: t.TempDir(), Status: io.Discard}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	a.Hub.Trace.Instant(ControlTID, "c", "bad", Args{Num("v", math.NaN())})
	if err := a.Finish(); err == nil {
		t.Error("Finish after a NaN arg should fail")
	}
	if err := a.traceFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("span file after a failed Finish: Close = %v, want os.ErrClosed", err)
	}

	b := &Artifacts{Hub: New(), Dir: t.TempDir(), Status: io.Discard}
	b.Hub.Trace.BeginProcess("p") // StreamTo refuses a tracer that has recorded events
	if err := b.Start(); err == nil {
		t.Fatal("Start on a tracer with recorded events should fail")
	}
	if err := b.traceFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("span file after a failed Start: Close = %v, want os.ErrClosed", err)
	}
}
