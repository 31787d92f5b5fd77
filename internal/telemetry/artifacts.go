package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
)

// File names of a run bundle that every command writes. A command adds its
// per-run documents next to them, each under the name its reader expects
// (see cmd/hstat).
const (
	SpansFile       = "spans.json"
	PromFile        = "metrics.prom"
	OpenMetricsFile = "metrics.om"
)

// Artifacts is a command's telemetry plumbing: the run bundle directory,
// where the span stream goes, and the daemon listener. Every CLI wires its
// runs through it, so they all pick the trace writer the same way and write
// the same bundle layout.
type Artifacts struct {
	Hub *Hub
	// Server is the daemon serving the hub over HTTP, nil without one.
	Server *Server
	// Dir is the run bundle. The spans stream to Dir/spans.json and the final
	// metrics land in Dir/metrics.prom and Dir/metrics.om. Without a Dir the
	// spans stream into the daemon's TraceSink, and without a daemon nowhere.
	Dir string
	// Status receives the lines that report the exports.
	Status io.Writer

	traceFile *os.File
}

// Start creates the bundle directory, opens the span stream and, with a
// Server, listens on addr and serves it in the background. It returns the
// bound address, nil without a Server. Start fails only on the bundle
// directory and on addr, before the command has done any work.
func (a *Artifacts) Start(addr string) (net.Addr, error) {
	switch {
	case a.Dir != "":
		if err := os.MkdirAll(a.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("-out: %w", err)
		}
		path := filepath.Join(a.Dir, SpansFile)
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("-out: %w", err)
		}
		a.traceFile = f
		if err := a.Hub.Trace.StreamTo(f); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		if a.Server != nil {
			a.Server.SetTraceFile(path)
		}
	case a.Server != nil:
		if err := a.Hub.Trace.StreamTo(a.Server.TraceSink()); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if a.Server == nil {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() {
		if err := http.Serve(ln, a.Server); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: http: %v\n", err)
		}
	}()
	return ln.Addr(), nil
}

// Export writes one document of the bundle, Dir/file, and reports it on
// Status. Without a Dir it writes nothing.
func (a *Artifacts) Export(file string, write func(io.Writer) error) error {
	if a.Dir == "" {
		return nil
	}
	path := filepath.Join(a.Dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(a.Status, "wrote %s\n", path)
	return nil
}

// Finish completes the span file and writes the metrics in both
// expositions, reporting each on Status. Without a Dir it does nothing.
func (a *Artifacts) Finish() error {
	if a.Dir == "" {
		return nil
	}
	if err := a.Hub.Trace.CloseStream(); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := a.traceFile.Close(); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(a.Status, "streamed %d trace events to %s\n", a.Hub.Trace.Len(), a.traceFile.Name())
	if err := a.Export(PromFile, a.Hub.Metrics.WriteProm); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	if err := a.Export(OpenMetricsFile, a.Hub.Metrics.WriteOpenMetrics); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	return nil
}
