package telemetry

import (
	"bytes"
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
// directory and on addr, before the command has done any work; a failure on
// addr completes the span stream and closes the span file.
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
			f.Close()
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
		a.closeTrace()
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() {
		if err := http.Serve(ln, a.Server); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: http: %v\n", err)
		}
	}()
	return ln.Addr(), nil
}

// closeTrace completes the span stream, stopping its encoder goroutine, and
// closes the span file, if there is one, even when the stream failed. It
// returns the first error.
func (a *Artifacts) closeTrace() error {
	err := a.Hub.Trace.CloseStream()
	if a.traceFile != nil {
		if cerr := a.traceFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Export renders one document of the run, once, and hands the same bytes to
// both readers: the bundle's Dir/file and, with a Server and a route, the
// daemon, which serves them on route (Server.Publish). The bundle file is
// streamed, so a run without a daemon never holds the document in memory.
// It reports the file on Status. Without a Dir or a daemon route it renders
// nothing.
func (a *Artifacts) Export(file, route string, write func(io.Writer) error) error {
	var sinks []io.Writer
	var f *os.File
	if a.Dir != "" {
		var err error
		if f, err = os.Create(filepath.Join(a.Dir, file)); err != nil {
			return err
		}
		sinks = append(sinks, f)
	}
	var doc bytes.Buffer
	publish := a.Server != nil && route != ""
	if publish {
		sinks = append(sinks, &doc)
	}
	if len(sinks) == 0 {
		return nil
	}
	if err := write(io.MultiWriter(sinks...)); err != nil {
		if f != nil {
			f.Close()
		}
		return fmt.Errorf("%s: %w", file, err)
	}
	if publish {
		a.Server.Publish(route, doc.Bytes())
	}
	if f == nil {
		return nil
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(a.Status, "wrote %s\n", f.Name())
	return nil
}

// Finish completes and closes the span file and writes the metrics in both
// expositions, reporting each on Status. The span file is closed even when
// the stream failed; Finish returns the first error. Without a Dir it does
// nothing.
func (a *Artifacts) Finish() error {
	if a.Dir == "" {
		return nil
	}
	if err := a.closeTrace(); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(a.Status, "streamed %d trace events to %s\n", a.Hub.Trace.Len(), a.traceFile.Name())
	if err := a.Export(PromFile, "", a.Hub.Metrics.WriteProm); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	if err := a.Export(OpenMetricsFile, "", a.Hub.Metrics.WriteOpenMetrics); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	return nil
}
