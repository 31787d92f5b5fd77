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

// TestExportRemovesTheFileOnFailure: a render that fails, here after writing
// part of its document, leaves no file in the bundle; a later render that
// succeeds writes it.
func TestExportRemovesTheFileOnFailure(t *testing.T) {
	a := &Artifacts{Hub: New(), Dir: t.TempDir(), Status: io.Discard}
	errRender := errors.New("render failed")
	err := a.Export("doc.json", func(w io.Writer) error {
		io.WriteString(w, `{"partial":`)
		return errRender
	})
	if !errors.Is(err, errRender) {
		t.Errorf("Export = %v, want the render's error", err)
	}
	path := filepath.Join(a.Dir, "doc.json")
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("after a failed render, Stat = %v, want the file gone", err)
	}
	if err := a.Export("doc.json", func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "{}\n" {
		t.Errorf("after a good render, the file holds %q (%v)", b, err)
	}
}
