package perf

import (
	"net/http"
	"net/http/pprof"

	"heroserve/internal/telemetry"
)

// Route is the daemon path serving the perf report, and File the document's
// name in a run bundle (serve -out), where hstat perf finds it. Both hold one
// rendering of Report.WriteJSON.
const (
	Route = "/perf"
	File  = "perf.json"
)

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
