package telemetry

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactsCloseTheSpanFileOnStreamErrors: the span file is closed on
// every path that gives up on it. Finish closes it when CloseStream fails
// (a NaN Num makes the stream's first error), and Start closes it when
// StreamTo refuses the tracer; both return the error. A second Close then
// reports the file already closed.
func TestArtifactsCloseTheSpanFileOnStreamErrors(t *testing.T) {
	a := &Artifacts{Hub: New(), Dir: t.TempDir(), Status: io.Discard}
	if _, err := a.Start(""); err != nil {
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
	if _, err := b.Start(""); err == nil {
		t.Fatal("Start on a tracer with recorded events should fail")
	}
	if err := b.traceFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("span file after a failed Start: Close = %v, want os.ErrClosed", err)
	}
}

// TestArtifactsStartClosesTheStreamWhenListenFails: a Start that fails on
// addr after opening the span stream completes the stream, stopping its
// encoder goroutine, and closes the span file, which holds a complete
// empty document.
func TestArtifactsStartClosesTheStreamWhenListenFails(t *testing.T) {
	a := &Artifacts{Hub: New(), Server: NewServer(), Dir: t.TempDir(), Status: io.Discard}
	if _, err := a.Start("not an address"); err == nil {
		t.Fatal("Start on a bad address should fail")
	}
	if !a.Hub.Trace.stream.stopped {
		t.Error("span stream still open after a failed Start")
	}
	if err := a.traceFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("span file after a failed Start: Close = %v, want os.ErrClosed", err)
	}
	got, err := os.ReadFile(filepath.Join(a.Dir, SpansFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := docPrefix + docSuffix; string(got) != want {
		t.Errorf("span file %q, want %q", got, want)
	}
}
