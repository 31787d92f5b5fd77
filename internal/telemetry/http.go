package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
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
// /healthz, /runs (completed-run summaries as JSON), /runs/diff, and /trace
// (the current trace snapshot as Chrome trace-event JSON), plus the document
// routes packages layered above telemetry register with HandleDoc (the
// decision ledger, the SLO alert log, the perf report).
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
	snaps     []runState // per-run snapshots (index parallels runs)
	firing    int        // firing alerts in the latest published roll-up
	worstSev  string     // worst firing severity, "" when none
	maxRuns   int        // run-history retention cap (0 = unbounded)
	runBase   int        // completed runs evicted from the front of the history
	handlers  map[string]http.Handler
}

// runState is what AddRun captures of a completed run: its metric
// exposition, for /runs/diff, and every document route's latest bytes, for
// ?run= addressing.
type runState struct {
	metrics []byte
	docs    map[string][]byte
}

// NewServer returns a Server holding only the built-in routes; install it as
// an http.Handler.
func NewServer() *Server {
	s := &Server{docs: make(map[string][]byte)}
	s.handlers = map[string]http.Handler{
		"/metrics":   http.HandlerFunc(s.serveMetrics),
		"/healthz":   http.HandlerFunc(s.serveHealthz),
		"/runs":      http.HandlerFunc(s.serveRuns),
		"/runs/diff": http.HandlerFunc(s.serveRunsDiff),
		"/trace":     http.HandlerFunc(s.serveTrace),
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
// the latest document of a route registered with HandleDoc. Like PublishHub
// it MUST be called from the simulation goroutine at a safe point; the
// caller serializes, so the handlers never touch live sim state.
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

// SetMaxRuns bounds the run history: once more than n completed runs are
// held, AddRun evicts the oldest run (summary plus its metric and document
// snapshots). Run IDs stay stable across evictions — /runs/diff and the
// ?run= document snapshots keep addressing surviving runs by their original
// IDs. n <= 0 means unbounded (the default).
func (s *Server) SetMaxRuns(n int) {
	s.mu.Lock()
	s.maxRuns = n
	s.mu.Unlock()
}

// AddRun records a completed run for /runs, assigning it the next sequential
// ID, and captures the latest published metric snapshot and documents as the
// run's state — so callers should PublishHub and Publish first, then AddRun.
// Safe to call from the goroutine driving the runs. Returns how many old runs
// the retention cap evicted (0 without SetMaxRuns).
func (s *Server) AddRun(r RunSummary) (evicted int) {
	s.mu.Lock()
	r.ID = s.runBase + len(s.runs) + 1
	s.runs = append(s.runs, r)
	s.snaps = append(s.snaps, runState{metrics: s.prom, docs: maps.Clone(s.docs)})
	for s.maxRuns > 0 && len(s.runs) > s.maxRuns {
		s.runs = s.runs[1:]
		s.snaps = s.snaps[1:]
		s.runBase++
		evicted++
	}
	s.mu.Unlock()
	return evicted
}

// runIndex resolves a run ID against the retained history under the
// caller's lock: index into runs and snaps, or ok=false when the ID was
// never assigned or has been evicted.
func (s *Server) runIndex(id int) (idx int, ok bool) {
	idx = id - 1 - s.runBase
	return idx, id >= 1 && idx >= 0 && idx < len(s.runs)
}

// runRangeError describes the retained run-ID window for 404 messages.
func (s *Server) runRangeError() string {
	if len(s.runs) == 0 {
		return "no completed runs retained"
	}
	return fmt.Sprintf("run out of range: have runs %d..%d", s.runBase+1, s.runBase+len(s.runs))
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

// Document is what a Filter narrows a stored document to.
type Document interface {
	WriteJSON(w io.Writer) error
}

// Narrow decodes a stored document and keeps what a request selected, within
// the [from, to] sim-time window (to <= 0: no upper bound).
type Narrow func(doc []byte, from, to float64) (Document, error)

// Filter is a document route's server-side filter. Params names the route's
// own query parameters; a request setting none of them, nor from or to, gets
// the stored bytes verbatim. Otherwise Parse validates the request's
// parameters (an error answers 400 with its text) and returns the Narrow
// the handler applies.
type Filter struct {
	Params []string
	Parse  func(q url.Values) (Narrow, error)
}

// HandleDoc registers a document route serving what Publish stored under it:
//
//	route[?run=<id>][&from=<t>][&to=<t>][&<Filter.Params>]
//
// run selects a completed run's snapshot (captured at AddRun); without it the
// latest published document is served. noun names the document in the 404
// before anything is published. A nil f serves the stored bytes verbatim
// whatever the query. Every error is a JSON body ({"error": msg}).
func (s *Server) HandleDoc(route, noun string, f *Filter) {
	s.Handle(route, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.serveDoc(w, r, route, noun, f)
	}))
}

func (s *Server) serveDoc(w http.ResponseWriter, r *http.Request, route, noun string, f *Filter) {
	q := r.URL.Query()
	s.mu.RLock()
	doc := s.docs[route]
	if runStr := q.Get("run"); runStr != "" {
		id, err := strconv.Atoi(runStr)
		idx, ok := s.runIndex(id)
		if err != nil || !ok {
			msg := s.runRangeError()
			s.mu.RUnlock()
			writeJSONError(w, http.StatusNotFound, msg)
			return
		}
		doc = s.snaps[idx].docs[route]
	}
	s.mu.RUnlock()
	if len(doc) == 0 {
		writeJSONError(w, http.StatusNotFound, "no "+noun+" published yet")
		return
	}
	set := func(p string) bool { return q.Get(p) != "" }
	if f == nil || !(set("from") || set("to") || slices.ContainsFunc(f.Params, set)) {
		w.Header().Set("Content-Type", jsonContentType)
		w.Write(doc)
		return
	}
	narrow, err := f.Parse(q)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	var window [2]float64 // from, to
	for i, name := range []string{"from", "to"} {
		if v := q.Get(name); v != "" {
			if window[i], err = strconv.ParseFloat(v, 64); err != nil {
				writeJSONError(w, http.StatusBadRequest, "bad "+name)
				return
			}
		}
	}
	out, err := narrow(doc, window[0], window[1])
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	out.WriteJSON(w)
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
		Evicted   int     `json:"evicted_runs"`
		Firing    int     `json:"alerts_firing"`
		Worst     string  `json:"worst_alert_severity"`
	}{status, s.simTime, s.published, len(s.runs), s.runBase, s.firing, worst}
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

// RunsDiff is the /runs/diff response: the two run IDs and the one Diff of
// their metric snapshots. Snapshots are cumulative (metrics accumulate across
// a daemon's runs), so a diff of run N against run N-1 isolates run N's own
// contribution.
type RunsDiff struct {
	A int `json:"a"`
	B int `json:"b"`
	Diff
}

// serveRunsDiff diffs the metric snapshots captured at two runs' AddRun
// points: /runs/diff?a=1&b=2. The optional view=critpath keeps only the two
// critical-path families, the stage rows hstat trace -diff also names.
func (s *Server) serveRunsDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, errA := strconv.Atoi(q.Get("a"))
	b, errB := strconv.Atoi(q.Get("b"))
	if errA != nil || errB != nil {
		writeJSONError(w, http.StatusBadRequest, "want ?a=<run-id>&b=<run-id>")
		return
	}
	view := q.Get("view")
	if view != "" && view != "critpath" {
		writeJSONError(w, http.StatusBadRequest, "bad view: want critpath")
		return
	}
	s.mu.RLock()
	idxA, okA := s.runIndex(a)
	idxB, okB := s.runIndex(b)
	var snapA, snapB []byte
	if okA {
		snapA = s.snaps[idxA].metrics
	}
	if okB {
		snapB = s.snaps[idxB].metrics
	}
	rangeMsg := s.runRangeError()
	s.mu.RUnlock()
	if !okA || !okB {
		writeJSONError(w, http.StatusNotFound, rangeMsg)
		return
	}
	sa, sb := parseSeries(snapA), parseSeries(snapB)
	if view == "critpath" {
		for _, m := range []map[string]float64{sa, sb} {
			for k := range m {
				if family, _, _ := strings.Cut(k, "{"); family != TTFTCritPathFamily && family != E2ECritPathFamily {
					delete(m, k)
				}
			}
		}
	}
	writeJSON(w, RunsDiff{A: a, B: b, Diff: DiffSeries(sa, sb)})
}

// parseSeries reads a Prometheus text exposition into series-name → value
// (comment lines skipped), the same granularity the golden gate diffs at.
func parseSeries(snapshot []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(snapshot), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
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
