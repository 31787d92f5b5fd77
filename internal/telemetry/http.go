package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Latency summarizes one latency distribution for /runs.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// RunSummary is one completed serving run, as reported by the daemon's /runs
// endpoint. System is the CLI/experiment system id (e.g. "heroserve",
// "DS-ATP"); Policy is the communication policy the run executed.
type RunSummary struct {
	ID         int     `json:"id"`
	System     string  `json:"system"`
	Policy     string  `json:"policy"`
	Trace      string  `json:"trace"`
	Requests   int     `json:"requests"`
	Served     int     `json:"served"`
	SimSeconds float64 `json:"sim_seconds"`
	Attainment float64 `json:"sla_attainment"`
	TTFT       Latency `json:"ttft"`
	TPOT       Latency `json:"tpot"`
}

// Server exposes a Hub over HTTP: /metrics (Prometheus text exposition),
// /healthz, /runs (completed-run summaries as JSON) and /trace (the current
// trace snapshot as Chrome trace-event JSON), plus the document routes
// registered with HandleDoc (the decision ledger, the SLO alert log, the perf
// report).
//
// The Registry and Tracer are single-goroutine structures owned by the
// simulation loop, so the Server never reads them directly. Instead the
// simulation goroutine renders immutable snapshots at safe points — between
// events or between runs — via PublishHub and Publish, and handlers serve the
// latest snapshot under a read lock. Scrapers therefore observe a consistent,
// slightly stale view and can never race the event loop.
//
// The trace is not re-rendered: a tracer streaming into TraceSink appends to
// the server's in-memory span file from the stream's encoder goroutine, and
// PublishHub, whose Flush waits for that goroutine to write everything
// recorded so far, only publishes how much of it is complete.
type Server struct {
	mu        sync.RWMutex
	simTime   float64
	published int
	prom      []byte
	om        []byte    // OpenMetrics rendering of the same snapshot
	sink      traceSink // written by the tracer's encoder goroutine, read at PublishHub
	trace     []byte    // published prefix of sink.buf; docSuffix completes it
	traceFile string
	docs      map[string][]byte // latest published document per route
	runs      []RunSummary
	firing    int    // firing alerts in the latest published roll-up
	worstSev  string // worst firing severity, "" when none
	handlers  map[string]http.Handler
}

// NewServer returns a Server holding only the built-in routes; install it as
// an http.Handler.
func NewServer() *Server {
	s := &Server{docs: make(map[string][]byte)}
	s.handlers = map[string]http.Handler{
		"/metrics": http.HandlerFunc(s.serveMetrics),
		"/healthz": http.HandlerFunc(s.serveHealthz),
		"/runs":    http.HandlerFunc(s.serveRuns),
		"/trace":   http.HandlerFunc(s.serveTrace),
	}
	return s
}

// traceSink is the daemon's in-memory span file: an append-only byte slice.
// Appending never touches a published prefix: it writes beyond it, or copies
// it into a new array, so handlers may read a prefix while the tracer's
// encoder goroutine appends.
type traceSink struct{ buf []byte }

func (k *traceSink) Write(p []byte) (int, error) {
	k.buf = append(k.buf, p...)
	return len(p), nil
}

// TraceSink returns the writer /trace serves: stream the hub's tracer to it
// (Tracer.StreamTo) before the run. Only that stream's encoder goroutine
// writes to it; PublishHub reads it once the tracer's Flush has returned.
func (s *Server) TraceSink() io.Writer { return &s.sink }

// PublishHub renders a snapshot of the hub's metrics, flushes its tracer, and
// publishes the part of the trace sink written so far for the handlers. The
// Flush is the hand-over point: it returns once the tracer's encoder
// goroutine has written every event recorded so far, and the encoder writes
// nothing more until the simulation records further events. PublishHub MUST be
// called from the goroutine that owns the hub (the simulation loop) at a
// safe point; that discipline is what keeps the daemon race-detector clean.
func (s *Server) PublishHub(h *Hub) error {
	var prom bytes.Buffer
	if err := h.Metrics.WriteProm(&prom); err != nil {
		return err
	}
	var om bytes.Buffer
	if err := h.Metrics.WriteOpenMetrics(&om); err != nil {
		return err
	}
	if err := h.Trace.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	s.simTime = h.Now()
	s.published++
	s.prom = prom.Bytes()
	s.om = om.Bytes()
	s.trace = s.sink.buf
	s.mu.Unlock()
	return nil
}

// Publish stores doc, a serialized artifact such as the decision ledger, as
// the document a route registered with HandleDoc serves. The server keeps
// the slice: the caller hands over bytes it no longer writes. Like
// PublishHub it MUST be called from the simulation goroutine at a safe
// point; the caller serializes, so the handlers never touch live sim state.
func (s *Server) Publish(route string, doc []byte) {
	s.mu.Lock()
	s.docs[route] = doc
	s.mu.Unlock()
}

// SetAlertRollup sets the SLO roll-up /healthz reports: how many alerts are
// firing and the worst firing severity ("" when none). Same calling
// discipline as Publish.
func (s *Server) SetAlertRollup(firing int, worst string) {
	s.mu.Lock()
	s.firing = firing
	s.worstSev = worst
	s.mu.Unlock()
}

// AddRun records a completed run for /runs, assigning it the next sequential
// ID. Safe to call from the goroutine driving the runs.
func (s *Server) AddRun(r RunSummary) {
	s.mu.Lock()
	r.ID = len(s.runs) + 1
	s.runs = append(s.runs, r)
	s.mu.Unlock()
}

// SetTraceFile records the path the trace is being streamed to instead of
// TraceSink, so /trace can point callers at the file.
func (s *Server) SetTraceFile(path string) {
	s.mu.Lock()
	s.traceFile = path
	s.mu.Unlock()
}

// Handle registers a route — how packages layered above telemetry (e.g.
// net/http/pprof's subtree in internal/telemetry/perf) extend the daemon
// without an import cycle. A path ending in "/" is a prefix route: it matches
// itself and everything below it (longest prefix wins, an exact route wins
// over any prefix), which is what subtree handlers like net/http/pprof need.
// Register before serving.
func (s *Server) Handle(path string, h http.Handler) {
	s.mu.Lock()
	s.handlers[path] = h
	s.mu.Unlock()
}

// Routes lists the paths the server answers, sorted. A route below a
// registered prefix route is covered by it and not listed.
func (s *Server) Routes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var routes []string
next:
	for p := range s.handlers {
		for q := range s.handlers {
			if q != p && strings.HasSuffix(q, "/") && strings.HasPrefix(p, q) {
				continue next
			}
		}
		routes = append(routes, p)
	}
	sort.Strings(routes)
	return routes
}

// HandleDoc registers a document route serving, verbatim, the bytes Publish
// last stored under it. noun names the document in the JSON 404 answered
// before anything is published.
func (s *Server) HandleDoc(route, noun string) {
	s.Handle(route, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		s.mu.RLock()
		doc := s.docs[route]
		s.mu.RUnlock()
		if len(doc) == 0 {
			writeJSONError(w, http.StatusNotFound, "no "+noun+" published yet")
			return
		}
		w.Header().Set("Content-Type", jsonContentType)
		w.Write(doc)
	}))
}

// lookupHandler resolves a request path against the routes: exact match
// first, then the longest registered "/"-terminated prefix.
func (s *Server) lookupHandler(path string) http.Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h, ok := s.handlers[path]; ok {
		return h
	}
	var best string
	var bestH http.Handler
	for p, h := range s.handlers {
		if strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) && len(p) > len(best) {
			best, bestH = p, h
		}
	}
	return bestH
}

// ServeHTTP routes the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.lookupHandler(r.URL.Path); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.NotFound(w, r)
}

// serveMetrics content-negotiates between the classic Prometheus text format
// and OpenMetrics: an Accept header mentioning application/openmetrics-text
// gets the OpenMetrics rendering (with _created series and exemplars), which
// is how real Prometheus servers opt in.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	body, om := s.prom, s.om
	s.mu.RUnlock()
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", ContentTypeOpenMetrics)
		w.Write(om)
		return
	}
	w.Header().Set("Content-Type", ContentTypeProm)
	w.Write(body)
}

// serveHealthz reports liveness plus the SLO roll-up: how many alerts are
// firing in the latest published alert log and the worst firing severity.
// Status degrades from "ok" to "degraded" while anything is firing.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	status, worst := "ok", s.worstSev
	if s.firing > 0 {
		status = "degraded"
	}
	if worst == "" {
		worst = "none"
	}
	resp := struct {
		Status    string  `json:"status"`
		SimTime   float64 `json:"sim_time"`
		Published int     `json:"published"`
		Runs      int     `json:"runs"`
		Firing    int     `json:"alerts_firing"`
		Worst     string  `json:"worst_alert_severity"`
	}{status, s.simTime, s.published, len(s.runs), s.firing, worst}
	s.mu.RUnlock()
	writeJSON(w, resp)
}

func (s *Server) serveRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	runs := s.runs
	s.mu.RUnlock()
	if runs == nil {
		runs = []RunSummary{}
	}
	writeJSON(w, runs)
}

func (s *Server) serveTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	body, file := s.trace, s.traceFile
	s.mu.RUnlock()
	switch {
	case len(body) > 0:
		w.Header().Set("Content-Type", jsonContentType)
		w.Header().Set("Content-Disposition", `attachment; filename="`+SpansFile+`"`)
		w.Write(body)
		io.WriteString(w, docSuffix)
	case file != "":
		writeJSONError(w, http.StatusConflict,
			fmt.Sprintf("trace is streaming to %s; no in-memory snapshot", file))
	default:
		writeJSONError(w, http.StatusNotFound, "no trace snapshot published yet")
	}
}

// jsonContentType is the stable content type every JSON endpoint sets —
// including the explicit charset some scrape clients require.
const jsonContentType = "application/json; charset=utf-8"

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeJSONError writes an error as an explicit JSON body ({"error": msg})
// so API clients of the JSON endpoints never have to sniff text/plain.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
