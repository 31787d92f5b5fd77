package perf

import (
	"net/http"
	"net/http/pprof"

	"heroserve/internal/telemetry"
)

// Route is the daemon path serving the perf report; publish the output of
// Report.WriteJSON under it.
const Route = "/perf"

// File is the document's name in a run bundle (serve -out), where hstat
// perf finds it.
const File = "perf.json"

// InstallPerf registers the /perf document route on the daemon server. It
// takes no filters: the stored report is served verbatim.
func InstallPerf(srv *telemetry.Server) {
	srv.HandleDoc(Route, "perf report", nil)
}

// InstallPprof mounts net/http/pprof's handlers under /debug/pprof/ on the
// daemon server. It is deliberately opt-in (the serve -pprof flag): pprof
// exposes stack traces, command lines, and CPU/heap profiles, which a
// metrics endpoint's audience should not get by default.
func InstallPprof(srv *telemetry.Server) {
	srv.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	srv.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	srv.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	srv.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	srv.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}
