package telemetry

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

// The handles' readers below serve only tests: a run reads its metrics
// from the exposition or through the Registry.

// Value returns the instantaneous value (0 on the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.tw.Value()
}

// Count returns the number of observations (0 on the nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations (0 on the nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// promRegistry builds a registry with every instrument kind, read at
// clock 4.
func promRegistry() *Registry {
	clock := 0.0
	r := NewRegistry(func() float64 { return clock })

	c := r.Counter("requests_total", "Total requests.", []string{"verdict"}, "met")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	r.Counter("requests_total", "Total requests.", []string{"verdict"}, "missed").Inc()

	g := r.Gauge("occupancy", "Batch occupancy.", []string{"instance"}, "decode-0")
	g.Set(4)
	clock = 2
	g.Set(0)
	clock = 4 // 4 held for [0,2), 0 for [2,4) -> timeavg 2

	h := r.Histogram("ttft_seconds", "TTFT.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)
	return r
}

func TestRegistryPromExport(t *testing.T) {
	r := promRegistry()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{verdict="met"} 3`,
		`requests_total{verdict="missed"} 1`,
		"# TYPE occupancy gauge",
		`occupancy{instance="decode-0"} 0`,
		`occupancy_timeavg{instance="decode-0"} 2`,
		"# TYPE ttft_seconds histogram",
		`ttft_seconds_bucket{le="0.1"} 1`,
		`ttft_seconds_bucket{le="1"} 2`,
		`ttft_seconds_bucket{le="+Inf"} 3`,
		"ttft_seconds_sum 50.55",
		"ttft_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n---\n%s", want, out)
		}
	}
	// Every sample line parses as the classic exposition grammar, and the
	// document carries no OpenMetrics EOF marker.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !sample.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	if strings.Contains(out, "# EOF") {
		t.Error("the Prometheus exposition must not carry the OpenMetrics EOF marker")
	}

	if v, ok := r.Value("requests_total", "met"); !ok || v != 3 {
		t.Errorf("Value(requests_total,met) = %v,%v", v, ok)
	}
	if n, ok := r.HistogramCount("ttft_seconds"); !ok || n != 3 {
		t.Errorf("HistogramCount = %v,%v", n, ok)
	}

	// Determinism: a second export at the same clock is byte-identical, and
	// so is the export of a second registry built the same way.
	var b2 strings.Builder
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("repeated export differs")
	}
	var b3 strings.Builder
	if err := promRegistry().WriteProm(&b3); err != nil {
		t.Fatal(err)
	}
	if b3.String() != out {
		t.Fatalf("two identical registries rendered different documents:\n--- a ---\n%s\n--- b ---\n%s", out, b3.String())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "", nil)
	g := r.Gauge("y", "", nil)
	h := r.Histogram("z", "", []float64{1}, nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read zero")
	}
	if err := r.WriteProm(nil); err != nil {
		t.Error("nil registry export should be a no-op")
	}
	if _, ok := r.Value("x"); ok {
		t.Error("nil registry Value should report not-found")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry(func() float64 { return 0 })
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry(func() float64 { return 0 })
	r.Counter("m", "help with \\ and\nnewline", []string{"l"}, "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `m{l="a\"b\\c\nd"} 1`) {
		t.Errorf("bad label escaping:\n%s", out)
	}
	if !strings.Contains(out, `# HELP m help with \\ and\nnewline`) {
		t.Errorf("bad help escaping:\n%s", out)
	}
}

func TestRegistryTimeAvg(t *testing.T) {
	clock := 0.0
	r := NewRegistry(func() float64 { return clock })
	g := r.Gauge("g", "", []string{"inst"}, "a")
	g.Set(4)
	clock = 2
	g.Set(0)
	clock = 4
	// 4 held for [0,2), 0 for [2,4): the mean advances to the current clock
	// even without an intervening Set, matching the g_timeavg exposition.
	if got, ok := r.TimeAvg("g", "a"); !ok || got != 2 {
		t.Errorf("TimeAvg = %v (ok=%v), want 2", got, ok)
	}
	if _, ok := r.TimeAvg("missing"); ok {
		t.Error("TimeAvg found a missing family")
	}
	if _, ok := r.TimeAvg("g", "other"); ok {
		t.Error("TimeAvg found a missing child")
	}
	r.Counter("c", "", nil).Inc()
	if _, ok := r.TimeAvg("c"); ok {
		t.Error("TimeAvg answered for a counter")
	}
	var nilReg *Registry
	if _, ok := nilReg.TimeAvg("g", "a"); ok {
		t.Error("nil registry TimeAvg should report not-found")
	}
}

// TestHistogramDropsNonFinite: a NaN observation used to fail every bucket
// comparison and poison _sum forever; non-finite samples are now dropped and
// tallied in telemetry_dropped_samples_total{metric}.
func TestHistogramDropsNonFinite(t *testing.T) {
	clock := 0.0
	h := New()
	h.Attach(func() float64 { return clock }, "planned")
	hist := h.Metrics.Histogram("ttft_seconds", "t.", []float64{1}, nil)
	hist.Observe(0.5)
	hist.Observe(math.NaN())
	hist.Observe(math.Inf(1))
	hist.Observe(math.Inf(-1))
	hist.Observe(0.25)

	if hist.Count() != 2 {
		t.Errorf("count = %d, want 2", hist.Count())
	}
	if hist.Sum() != 0.75 {
		t.Errorf("sum = %v, want 0.75 (a NaN would poison it)", hist.Sum())
	}
	if math.IsNaN(hist.Sum()) {
		t.Fatal("sum is NaN")
	}
	if got, ok := h.Metrics.Value("telemetry_dropped_samples_total", "ttft_seconds"); !ok || got != 3 {
		t.Errorf("dropped counter = %v,%v, want 3", got, ok)
	}
	// The exposition stays parseable.
	var b bytes.Buffer
	if err := h.Metrics.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "NaN") {
		t.Errorf("exposition carries NaN:\n%s", b.String())
	}
}

// TestHistogramNilDroppedCounter: hand-built histograms (no registry) must
// not crash on non-finite samples.
func TestHistogramNilDroppedCounter(t *testing.T) {
	var h *Histogram
	h.Observe(math.NaN()) // nil receiver
	h2 := &Histogram{upper: []float64{1}, counts: make([]uint64, 1)}
	h2.Observe(math.NaN())
	if h2.Count() != 0 {
		t.Error("NaN counted on registry-less histogram")
	}
}
