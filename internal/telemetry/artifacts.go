package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File names of a run bundle that every command writes. A command adds its
// per-run documents next to them, each under the name its reader expects
// (see cmd/hstat).
const (
	SpansFile = "spans.json"
	PromFile  = "metrics.prom"
)

// Artifacts is a command's run bundle: the directory every telemetered run
// publishes into. Every CLI wires its runs through it, so they all stream
// the spans the same way and write the same bundle layout.
type Artifacts struct {
	Hub *Hub
	// Dir is the run bundle. The spans stream to Dir/spans.json and the final
	// metrics land in Dir/metrics.prom.
	Dir string
	// Status receives the lines that report the exports.
	Status io.Writer

	traceFile *os.File
}

// Start creates the bundle directory and opens the span stream into
// Dir/spans.json. It fails only on the bundle directory and the span file,
// before the command has done any work.
func (a *Artifacts) Start() error {
	if err := os.MkdirAll(a.Dir, 0o755); err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	f, err := os.Create(filepath.Join(a.Dir, SpansFile))
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	a.traceFile = f
	if err := a.Hub.Trace.StreamTo(f); err != nil {
		f.Close()
		return fmt.Errorf("trace export: %w", err)
	}
	return nil
}

// Export renders one document of the run, once, streaming it into the
// bundle's Dir/file, and reports the file on Status. A failed render or
// close removes the file, so the bundle holds no empty or truncated
// document.
func (a *Artifacts) Export(file string, write func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(a.Dir, file))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("%s: %w", file, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	fmt.Fprintf(a.Status, "wrote %s\n", f.Name())
	return nil
}

// Finish completes and closes the span file and writes the metrics,
// reporting each on Status. The span file is closed even when
// the stream failed; Finish returns the first error.
func (a *Artifacts) Finish() error {
	err := a.Hub.Trace.CloseStream()
	if cerr := a.traceFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(a.Status, "streamed %d trace events to %s\n", a.Hub.Trace.Len(), a.traceFile.Name())
	if err := a.Export(PromFile, a.Hub.Metrics.WriteProm); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	return nil
}

// DecodeJSON decodes the one JSON document r holds into v. Anything after
// the document but whitespace is an error: every writer of a bundle file
// or a trace ends its document with a newline, and nothing else.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}
