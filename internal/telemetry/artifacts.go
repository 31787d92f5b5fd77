package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
)

// Artifacts is a command's telemetry plumbing: where the span stream goes,
// the daemon listener, and the metrics export at the end of the run. Every
// CLI wires its runs through it, so they all pick the trace writer the same
// way.
type Artifacts struct {
	Hub *Hub
	// Server is the daemon serving the hub over HTTP, nil without one.
	Server *Server
	// TraceOut streams the spans to this file. Without it they stream into
	// the daemon's TraceSink, and without a daemon nowhere.
	TraceOut string
	// MetricsOut receives the final metrics in MetricsFormat.
	MetricsOut    string
	MetricsFormat string
	// Status receives the lines that report the exports.
	Status io.Writer

	traceFile *os.File
}

// CheckMetricsFormat rejects a metrics exposition format other than prom
// and openmetrics.
func CheckMetricsFormat(format string) error {
	if format != "prom" && format != "openmetrics" {
		return fmt.Errorf("unknown -metrics-format %q (allowed: prom | openmetrics)", format)
	}
	return nil
}

// Start opens the span stream and, with a Server, listens on addr and
// serves it in the background. It returns the bound address, nil without a
// Server.
func (a *Artifacts) Start(addr string) (net.Addr, error) {
	switch {
	case a.TraceOut != "":
		f, err := os.Create(a.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		a.traceFile = f
		if err := a.Hub.Trace.StreamTo(f); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		if a.Server != nil {
			a.Server.SetTraceFile(a.TraceOut)
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

// Finish completes the span file and writes the metrics export, reporting
// each on Status.
func (a *Artifacts) Finish() error {
	if a.traceFile != nil {
		if err := a.Hub.Trace.CloseStream(); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		if err := a.traceFile.Close(); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Fprintf(a.Status, "streamed %d trace events to %s\n", a.Hub.Trace.Len(), a.TraceOut)
	}
	if a.MetricsOut != "" {
		write := a.Hub.Metrics.WriteProm
		if a.MetricsFormat == "openmetrics" {
			write = a.Hub.Metrics.WriteOpenMetrics
		}
		if err := ExportFile(a.MetricsOut, write); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		fmt.Fprintf(a.Status, "wrote metrics (%s) to %s\n", a.MetricsFormat, a.MetricsOut)
	}
	return nil
}

// ExportFile writes one telemetry artifact to path via its writer function.
func ExportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
