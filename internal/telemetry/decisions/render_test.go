package decisions

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

// readDoc decodes a ledger document whole, with encoding/json.
func readDoc(data []byte) (*document, error) {
	var doc document
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc)
	return &doc, err
}

// docOf reads l back through its accessors into its document.
func docOf(l *Ledger) *document {
	doc := &document{Meta: l.Meta}
	for i := 0; i < l.NumCollective(); i++ {
		doc.Collective = append(doc.Collective, l.Collective(i))
	}
	for i := 0; i < l.NumScale(); i++ {
		doc.Scale = append(doc.Scale, *l.Scale(i))
	}
	return doc
}

// encodeWhole renders d with one encoding/json Encode, empty record lists
// as [], not null: the reference WriteJSON's per-record framing matches.
func encodeWhole(d *document) ([]byte, error) {
	doc := *d
	if doc.Collective == nil {
		doc.Collective = []CollectiveRecord{}
	}
	if doc.Scale == nil {
		doc.Scale = []ScaleRecord{}
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(&doc)
	return b.Bytes(), err
}

// checkRender asserts that l's WriteJSON bytes equal a whole-document
// encoding/json rendering of l read back through its accessors.
func checkRender(t *testing.T, l *Ledger) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := l.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := encodeWhole(docOf(l))
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json:\ngot  %s\nwant %s", got.Bytes(), want)
	}
	return got.Bytes()
}

// escapingLedger holds every value whose encoding is not a plain copy:
// strings needing escapes, IEEE specials in costs, e-notation floats and
// -0, null against empty shadows and candidates, and omitted optionals. Its
// NaN-priced ring candidate leaves ring's regret total NaN.
func escapingLedger() *Ledger {
	l := NewLedger()
	l.SetScaleMeta(ScaleMeta{Fleet: 2, Interval: 1e-7, End: 1e21})
	l.AddCollective(CollectiveRecord{
		T: math.Copysign(0, -1), Group: `<prefill & "decode">/é/0`, Bytes: -1, Steps: 1 << 40,
		Candidates: []CollectiveCandidate{
			{Label: "ring\t\\", Scheme: "ring", CostJ: telemetry.JSONFloat(math.Inf(1)), CostSeconds: telemetry.JSONFloat(math.Inf(-1))},
			{Label: "ina@€", Scheme: "ina-sync", CostJ: telemetry.JSONFloat(math.NaN()), CostSeconds: 1e-7},
			{Label: "h\x00", Scheme: "ina-hetero", CostJ: 1e21, CostSeconds: telemetry.JSONFloat(math.Copysign(0, -1))},
		},
		Chosen: 2, Best: 1, Executed: 0, Scheme: "ring", Reason: "guard-fallback",
		Actual: telemetry.JSONFloat(math.Inf(1)), Regret: telemetry.JSONFloat(math.NaN()), Stalled: true,
	})
	l.AddCollective(CollectiveRecord{T: 123456789.125, Group: "g", Candidates: []CollectiveCandidate{}, Scheme: " "})
	l.AddCollective(CollectiveRecord{T: 2.5e-9, Group: "g"})
	l.AddCollective(CollectiveRecord{T: 3, Group: "g", Candidates: []CollectiveCandidate{
		{Label: "n", Scheme: "ring", CostSeconds: telemetry.JSONFloat(math.NaN())},
		{Label: "r", Scheme: "ring", CostSeconds: 0.5},
		{Label: "s", Scheme: "ina-sync", CostSeconds: 0.25},
	}, Chosen: 2, Best: 2, Executed: 2, Scheme: "ina-sync", Reason: "stage-ina"})
	l.AddScale(ScaleRecord{T: 1, Shadows: nil, Signals: ScaleSignalsRec{ActiveAlerts: []string{}, Occupancy: 1e-300}})
	l.AddScale(ScaleRecord{
		T: 2, Primary: "a&b", Decision: "scale_out", Applied: "activate", Instance: 3,
		Signals: ScaleSignalsRec{Backlog: 1, ActiveAlerts: []string{"ttft>1s", "é"}, DominantStage: "<kv>", LatencyPrimed: true},
		Law:     "l", Switch: "a->b", SwitchSignal: "alert", BatchTarget: -4,
		Shadows: []ShadowDecision{}, Disagree: 7,
		Outcome: &Outcome{Completed: 1, Met: 1, TTFT: 1e20, TPOT: 1e-6, Horizon: math.Copysign(0, -1)},
	})
	return l
}

// TestWriteJSONMatchesEncodingJSON pins the per-record render to a
// whole-document encoding/json render on hand-built ledgers, a serve export, a ledger spanning several chunks of
// each kind and an empty one.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	checkRender(t, sampleLedger())
	checkRender(t, escapingLedger())
	checkRender(t, NewLedger())

	seed, err := os.ReadFile("testdata/ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	l, err := ReadJSON(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkRender(t, l); !bytes.Equal(got, seed) {
		t.Errorf("serve export does not survive ReadJSON -> WriteJSON:\n%s\n%s", got, seed)
	}

	chunked := benchLedger(collectiveChunk*2+7, 10*scaleChunk+5)
	chunked.AddCollective(sampleLedger().Collective(1))
	chunked.AddScale(*sampleLedger().Scale(0))
	checkRender(t, chunked)

	var nilDoc bytes.Buffer
	if err := (*Ledger)(nil).WriteJSON(&nilDoc); err != nil {
		t.Fatal(err)
	}
	if want, _ := encodeWhole(&document{}); !bytes.Equal(nilDoc.Bytes(), want) {
		t.Errorf("nil ledger renders %s, want %s", nilDoc.Bytes(), want)
	}
}

// TestWriteJSONRejectsNonFinite: a NaN or infinite value in a plain float
// field fails WriteJSON with encoding/json's error, and nothing is written.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		mut  func(l *Ledger)
	}{
		{"collective t", func(l *Ledger) { l.AddCollective(CollectiveRecord{T: nan}) }},
		{"meta interval", func(l *Ledger) { l.Meta.Interval = inf }},
		{"meta end", func(l *Ledger) { l.SetEnd(-inf) }},
		{"scale t", func(l *Ledger) { l.AddScale(ScaleRecord{T: nan}) }},
		{"signal", func(l *Ledger) { l.Scale(0).Signals.LongestIdle = inf }},
		{"outcome", func(l *Ledger) { l.Scale(1).Outcome.Horizon = nan }},
		{"first in document order", func(l *Ledger) {
			l.Scale(0).T = inf
			l.AddCollective(CollectiveRecord{T: nan})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := sampleLedger()
			c.mut(l)
			_, want := encodeWhole(docOf(l))
			if want == nil {
				t.Fatal("encoding/json accepted the ledger")
			}
			var got bytes.Buffer
			err := l.WriteJSON(&got)
			if err == nil || err.Error() != want.Error() || got.Len() != 0 {
				t.Errorf("WriteJSON = %v with %d bytes written, want %v and none", err, got.Len(), want)
			}
		})
	}
}

// TestWriteJSONStreams: a render hands its writer the document in several
// writes, none larger than bufSize, so the render does not hold the
// document, however large the ledger.
func TestWriteJSONStreams(t *testing.T) {
	l := benchLedger(16*collectiveChunk, 128)
	var w sizeWriter
	if err := l.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 || slices.Max(w.sizes) > bufSize {
		t.Errorf("WriteJSON wrote %d bytes in writes of %v, want several of at most %d", w.total, w.sizes, bufSize)
	}
	if want, _ := encodeWhole(docOf(l)); w.total != len(want) {
		t.Errorf("WriteJSON wrote %d bytes, the document is %d", w.total, len(want))
	}
}

// sizeWriter records the size of each write it is handed.
type sizeWriter struct {
	sizes []int
	total int
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	w.total += len(p)
	return len(p), nil
}

// benchLedger builds a ledger of picks with three candidates each over eight
// group tables, every seventh pick with its INA candidates priced +Inf by a
// fault, plus a scale section with a five-law shadow panel.
func benchLedger(picks, steps int) *Ledger {
	l := NewLedger()
	l.SetScaleMeta(ScaleMeta{Fleet: 4, InitialActive: 2, MinActive: 1, Interval: 1, GPUsPerInstance: 4, SLA: true})
	var tables [8]int
	for g := range tables {
		tables[g] = l.RegisterTable(fmt.Sprintf("decode/%d/0", g),
			[]string{"ring", "ina@tofino0", "hetero@tofino0"}, []string{"ring", "ina-sync", "ina-hetero"})
	}
	costs := make([]float64, 3)
	for i := 0; i < picks; i++ {
		x := float64(i%97+1) * 1.37e-5
		costs[0], costs[1], costs[2] = x, x*0.83, x*1.21
		chosen := 1
		if i%7 == 0 {
			costs[1], costs[2] = math.Inf(1), math.Inf(1)
			chosen = 0
		}
		l.AddPick(Pick{
			T: float64(i) * 0.0123, Table: tables[i%8], Bytes: 819200, Steps: 80,
			Costs: costs, Window: 0.1, Chosen: chosen, Best: chosen, Executed: chosen,
			Scheme: []string{"ring", "ina-sync"}[chosen], Reason: "table",
			Actual: costs[chosen] * 0.1,
		})
	}
	laws := []string{"adaptive", "backlog", "latency", "predictive", "static"}
	for i := 0; i < steps; i++ {
		rec := ScaleRecord{
			T: float64(i), Primary: "adaptive", Decision: "hold", Applied: "none", Instance: -1,
			Signals: ScaleSignalsRec{Backlog: i % 5, Active: 2, Occupancy: 0.61, KVUtilization: 0.42, TTFT: 0.8, TPOT: 0.05, LatencyPrimed: true},
			Law:     "backlog",
		}
		for _, law := range laws {
			rec.Shadows = append(rec.Shadows, ShadowDecision{Law: law, Decision: "hold"})
		}
		l.AddScale(rec).Outcome = &Outcome{Completed: 9, Met: 8, TTFT: 0.9, TPOT: 0.04, Horizon: 1}
	}
	return l
}

// BenchmarkLedgerWriteJSON renders a 13k-pick ledger with a scale section.
func BenchmarkLedgerWriteJSON(b *testing.B) {
	l := benchLedger(13000, 300)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCollectiveAccessor: a record reads back as it was added, IEEE
// specials, e-notation floats, -0 and a nil candidate slice included.
func TestCollectiveAccessor(t *testing.T) {
	l := escapingLedger()
	r := l.Collective(0)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cost_j":"+Inf"`, `"cost_seconds":"-Inf"`, `"cost_j":"NaN"`, `"cost_seconds":1e-7`, `"cost_j":1e+21`, `"cost_seconds":-0`, `"t":-0`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("record %s lacks %s", b, want)
		}
	}
	if l.Collective(2).Candidates != nil || l.Collective(1).Candidates == nil {
		t.Error("accessor lost the null/empty distinction of candidates")
	}
}

// refSummarize is Summarize's collective half over the struct form, one map
// per record: the reference the per-table summary must reproduce.
func refSummarize(recs []CollectiveRecord) *Summary {
	s := &Summary{Collective: len(recs)}
	schemes := map[string]*SchemeStat{}
	scheme := func(name string) *SchemeStat {
		if schemes[name] == nil {
			schemes[name] = &SchemeStat{Scheme: name}
		}
		return schemes[name]
	}
	for _, r := range recs {
		if r.Reason == "guard-fallback" {
			s.Fallbacks++
		}
		if r.Stalled {
			s.Stalled++
		}
		if reg := float64(r.Regret); !math.IsInf(reg, 0) && !math.IsNaN(reg) {
			s.TotalRegretSeconds += reg
		}
		if r.Chosen < len(r.Candidates) {
			scheme(r.Candidates[r.Chosen].Scheme).Chosen++
		}
		scheme(r.Scheme).Executed++
		best := math.Inf(1)
		perScheme := map[string]float64{}
		for _, c := range r.Candidates {
			j := float64(c.CostSeconds)
			if j < best {
				best = j
			}
			if cur, ok := perScheme[c.Scheme]; !ok || j < cur {
				perScheme[c.Scheme] = j
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		for name, j := range perScheme {
			if st := scheme(name); math.IsInf(j, 1) {
				st.Unpriced++
			} else {
				st.RegretSeconds += j - best
			}
		}
	}
	for _, n := range telemetry.SortedKeys(schemes) {
		st := schemes[n]
		for _, r := range recs {
			if !slices.ContainsFunc(r.Candidates, func(c CollectiveCandidate) bool { return c.Scheme == n }) {
				st.Absent++
			}
		}
		s.Schemes = append(s.Schemes, *st)
	}
	sort.SliceStable(s.Schemes, func(i, j int) bool {
		if s.Schemes[i].RegretSeconds != s.Schemes[j].RegretSeconds {
			return s.Schemes[i].RegretSeconds < s.Schemes[j].RegretSeconds
		}
		return s.Schemes[i].Scheme < s.Schemes[j].Scheme
	})
	return s
}

// checkSummary asserts that l's collective summary equals refSummarize's
// over the same records, floats bit for bit.
func checkSummary(t *testing.T, l *Ledger, recs []CollectiveRecord) {
	t.Helper()
	got, want := l.Summarize(), refSummarize(recs)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	ok := got.Collective == want.Collective && got.Fallbacks == want.Fallbacks && got.Stalled == want.Stalled &&
		same(got.TotalRegretSeconds, want.TotalRegretSeconds) && len(got.Schemes) == len(want.Schemes)
	for i := 0; ok && i < len(got.Schemes); i++ {
		g, w := got.Schemes[i], want.Schemes[i]
		ok = g.Scheme == w.Scheme && g.Chosen == w.Chosen && g.Executed == w.Executed &&
			same(g.RegretSeconds, w.RegretSeconds) && g.Unpriced == w.Unpriced && g.Absent == w.Absent
	}
	if !ok {
		t.Fatalf("Summarize differs from the per-record reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSummarizeMatchesReference runs the per-table summary against the
// per-record one on hand-built ledgers and one spanning several chunks.
func TestSummarizeMatchesReference(t *testing.T) {
	chunked := benchLedger(3*collectiveChunk, 0)
	chunked.AddCollective(escapingLedger().Collective(0))
	// Each table of doubled lacks some scheme at two picks.
	doubled := escapingLedger()
	for i, n := 0, doubled.NumCollective(); i < n; i++ {
		doubled.AddCollective(doubled.Collective(i))
	}
	for _, l := range []*Ledger{sampleLedger(), escapingLedger(), doubled, chunked, NewLedger()} {
		checkSummary(t, l, docOf(l).Collective)
	}
}
