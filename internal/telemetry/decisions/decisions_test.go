package decisions

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

// TestFloatJSONRoundTrip pins the wire format of the float fields in a
// ledger record: ±Inf and NaN as strings, finite values as plain numbers.
func TestFloatJSONRoundTrip(t *testing.T) {
	for _, c := range []struct {
		v    float64
		wire string
	}{
		{0, `0`}, {1.5, `1.5`}, {-2.25, `-2.25`},
		{math.Inf(1), `"+Inf"`}, {math.Inf(-1), `"-Inf"`}, {math.NaN(), `"NaN"`},
	} {
		b, err := json.Marshal(CollectiveRecord{Actual: telemetry.JSONFloat(c.v)})
		if err != nil || !strings.Contains(string(b), `"actual_seconds":`+c.wire) {
			t.Fatalf("record with %v: %s (%v)", c.v, b, err)
		}
		var rec CollectiveRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		g := float64(rec.Actual)
		if math.IsNaN(c.v) {
			if !math.IsNaN(g) {
				t.Errorf("NaN round-tripped to %v", g)
			}
		} else if g != c.v {
			t.Errorf("%v round-tripped to %v via %s", c.v, g, b)
		}
	}
	var rec CollectiveRecord
	if err := json.Unmarshal([]byte(`{"actual_seconds":"bogus"}`), &rec); err == nil {
		t.Error("bad float string accepted")
	}
}

// sampleLedger builds a small hand-crafted ledger exercising fallbacks,
// Inf-priced candidates, shadows, and outcomes.
func sampleLedger() *Ledger {
	l := NewLedger()
	l.SetScaleMeta(ScaleMeta{Fleet: 3, InitialActive: 1, MinActive: 1, Interval: 0.5, GPUsPerInstance: 4, SLA: true})
	// Decision 1: ring wins cleanly.
	l.AddCollective(CollectiveRecord{
		T: 1, Group: "decode/0/0", Bytes: 1 << 20, Steps: 10,
		Candidates: []CollectiveCandidate{
			{Label: "r0", Scheme: "ring", CostJ: 2, CostSeconds: 0.2},
			{Label: "s0", Scheme: "ina-sync", CostJ: 5, CostSeconds: 0.5},
		},
		Chosen: 0, Best: 0, Executed: 0, Scheme: "ring", Reason: "table",
		Actual: 0.2, Regret: 0,
	})
	// Decision 2: INA chosen but guard falls back to ring: regret 0.3.
	l.AddCollective(CollectiveRecord{
		T: 2, Group: "decode/0/0", Bytes: 1 << 20, Steps: 10,
		Candidates: []CollectiveCandidate{
			{Label: "r0", Scheme: "ring", CostJ: 7, CostSeconds: 0.7},
			{Label: "s0", Scheme: "ina-sync", CostJ: 4, CostSeconds: 0.4},
		},
		Chosen: 1, Best: 1, Executed: 0, Scheme: "ring", Reason: "guard-fallback",
		Actual: 0.7, Regret: telemetry.JSONFloat(0.7 - 0.4), Stalled: true,
	})
	// Decision 3: the INA candidate is priced out (+Inf) by a fault.
	l.AddCollective(CollectiveRecord{
		T: 3, Group: "decode/0/0", Bytes: 1 << 20, Steps: 10,
		Candidates: []CollectiveCandidate{
			{Label: "r0", Scheme: "ring", CostJ: 3, CostSeconds: 0.3},
			{Label: "s0", Scheme: "ina-sync", CostJ: telemetry.JSONFloat(math.Inf(1)), CostSeconds: telemetry.JSONFloat(math.Inf(1))},
		},
		Chosen: 0, Best: 0, Executed: 0, Scheme: "ring", Reason: "table",
		Actual: 0.3, Regret: 0,
	})
	// Two scale steps: eager wants out, lazy holds; outcome stamped on both.
	r1 := l.AddScale(ScaleRecord{
		T: 0.5, Primary: "eager", Decision: "scale_out", Applied: "activate", Instance: 1,
		Signals:  ScaleSignalsRec{Backlog: 4, Active: 1, Reserves: 2, TTFT: 1.0, TPOT: 0.1, LatencyPrimed: true},
		Shadows:  []ShadowDecision{{Law: "eager", Decision: "scale_out"}, {Law: "lazy", Decision: "hold"}},
		Disagree: 1,
	})
	r1.Outcome = &Outcome{Completed: 10, Met: 8, TTFT: 1.2, TPOT: 0.11, Horizon: 0.5}
	r2 := l.AddScale(ScaleRecord{
		T: 1.0, Primary: "eager", Decision: "hold", Applied: "none", Instance: -1,
		Signals: ScaleSignalsRec{Backlog: 0, Active: 2, TTFT: 0.8, TPOT: 0.09, LatencyPrimed: true},
		Shadows: []ShadowDecision{{Law: "eager", Decision: "hold"}, {Law: "lazy", Decision: "hold"}},
	})
	r2.Outcome = &Outcome{Completed: 6, Met: 6, TTFT: 0.7, TPOT: 0.08, Horizon: 0.5}
	l.SetEnd(1.5)
	return l
}

func TestLedgerJSONRoundTrip(t *testing.T) {
	l := sampleLedger()
	var a bytes.Buffer
	if err := l.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := got.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("ledger JSON not byte-stable across a round trip:\nA: %s\nB: %s", a.Bytes(), b.Bytes())
	}
	// The Inf-priced candidate must survive the trip.
	c := got.Collective(2).Candidates[1]
	if !math.IsInf(float64(c.CostJ), 1) || !math.IsInf(float64(c.CostSeconds), 1) {
		t.Errorf("Inf candidate decayed to %v / %v", c.CostJ, c.CostSeconds)
	}
	// An empty ledger serializes with empty arrays, not nulls.
	var e bytes.Buffer
	if err := (*Ledger)(nil).WriteJSON(&e); err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if strings.Contains(s, "null") {
		t.Errorf("empty ledger JSON contains null: %s", s)
	}
}

// TestReadJSONRejectsTrailingData: a ledger followed by anything but
// whitespace is an error; the newline WriteJSON ends with, and more, is not.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	var doc bytes.Buffer
	if err := sampleLedger().WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail string
		ok   bool
	}{{"", true}, {" \t\r\n", true}, {"garbage", false}, {"{}", false}, {"]", false}} {
		_, err := ReadJSON(strings.NewReader(doc.String() + c.tail))
		if (err == nil) != c.ok || err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("ledger + %q: err %v, want ok=%v and a one-line error", c.tail, err, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := sampleLedger().Summarize()
	if s.Collective != 3 || s.Scale != 2 {
		t.Fatalf("counts = %d/%d", s.Collective, s.Scale)
	}
	if s.Fallbacks != 1 || s.Stalled != 1 {
		t.Errorf("fallbacks=%d stalled=%d, want 1/1", s.Fallbacks, s.Stalled)
	}
	if want := 0.7 - 0.4; math.Abs(s.TotalRegretSeconds-want) > 1e-12 {
		t.Errorf("total regret = %g, want %g", s.TotalRegretSeconds, want)
	}
	by := map[string]SchemeStat{}
	for _, st := range s.Schemes {
		by[st.Scheme] = st
	}
	ring := by["ring"]
	if ring.Chosen != 2 || ring.Executed != 3 {
		t.Errorf("ring chosen/executed = %d/%d, want 2/3", ring.Chosen, ring.Executed)
	}
	// Always-force-ring: decision 2 is the only one where ring wasn't
	// cheapest (0.7 vs 0.4).
	if want := 0.3; math.Abs(ring.RegretSeconds-want) > 1e-12 {
		t.Errorf("ring regret = %g, want %g", ring.RegretSeconds, want)
	}
	ina := by["ina-sync"]
	if ina.Chosen != 1 || ina.Executed != 0 || ina.Unpriced != 1 {
		t.Errorf("ina-sync chosen/executed/unpriced = %d/%d/%d, want 1/0/1", ina.Chosen, ina.Executed, ina.Unpriced)
	}
	// Always-force-ina: decisions 1 (0.5 vs 0.2) and 3 is unpriced.
	if want := 0.3; math.Abs(ina.RegretSeconds-want) > 1e-12 {
		t.Errorf("ina-sync regret = %g, want %g", ina.RegretSeconds, want)
	}
	// Schemes are sorted by regret ascending (0.7-0.4 < 0.5-0.2 in floats).
	for i := 1; i < len(s.Schemes); i++ {
		if s.Schemes[i-1].RegretSeconds > s.Schemes[i].RegretSeconds {
			t.Errorf("schemes not sorted by regret: %+v", s.Schemes)
		}
	}

	if s.Primary != "eager" || s.Disagreements != 1 {
		t.Errorf("primary=%s disagreements=%d", s.Primary, s.Disagreements)
	}
	lawBy := map[string]LawStat{}
	for _, lw := range s.Laws {
		lawBy[lw.Law] = lw
	}
	if lz := lawBy["lazy"]; lz.Hold != 2 || lz.Disagree != 1 {
		t.Errorf("lazy hold/disagree = %d/%d, want 2/1", lz.Hold, lz.Disagree)
	}
	if eg := lawBy["eager"]; eg.ScaleOut != 1 || eg.Hold != 1 || eg.Disagree != 0 {
		t.Errorf("eager = %+v", eg)
	}
	d := s.Drift
	if d == nil {
		t.Fatal("no drift block")
	}
	if d.Windows != 2 || d.Completed != 16 {
		t.Errorf("drift windows/completed = %d/%d", d.Windows, d.Completed)
	}
	if want := 14.0 / 16.0; math.Abs(d.Attainment-want) > 1e-12 {
		t.Errorf("drift attainment = %g, want %g", d.Attainment, want)
	}
	if want := (1.2 + 0.7) / 2; math.Abs(d.MeanRealizedTTFT-want) > 1e-12 {
		t.Errorf("realized TTFT = %g, want %g", d.MeanRealizedTTFT, want)
	}
}

func TestWriteTSVDeterministic(t *testing.T) {
	l := sampleLedger()
	var a, b bytes.Buffer
	if err := l.Summarize().WriteTSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.Summarize().WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("TSV differs across two renders of the same ledger")
	}
	for _, want := range []string{"## collective", "## scale", "## totals", "regret_seconds\t", "drift_windows\t2"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("TSV missing %q:\n%s", want, a.String())
		}
	}
}

func TestSummaryString(t *testing.T) {
	got := sampleLedger().Summarize().String()
	for _, want := range []string{"3 collective", "2 scale", "eager", "1 fallbacks", "shadow disagreement 25%"} {
		if !strings.Contains(got, want) {
			t.Errorf("one-liner missing %q: %s", want, got)
		}
	}
}

// TestSummarySeriesDiff: a serve -out ledger's self-diff changes nothing;
// moving one scheme's regret moves exactly that scheme's series, and one more
// fallback record (an ina-sync pick executed on ring under a stall) moves
// exactly the counts and regrets it touches.
func TestSummarySeriesDiff(t *testing.T) {
	f, err := os.Open("testdata/ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	base, moved := l.Summarize(), l.Summarize()
	if d := telemetry.DiffSeries(base.Series(), base.Series()); len(d.Changed) != 0 || d.Equal == 0 {
		t.Errorf("self-diff = %+v, want 0 changed and some equal", d)
	}
	i := slices.IndexFunc(moved.Schemes, func(st SchemeStat) bool { return st.Scheme == "ina-sync" })
	if i < 0 {
		t.Fatalf("no ina-sync scheme in %+v", moved.Schemes)
	}
	moved.Schemes[i].RegretSeconds += 0.5
	d := telemetry.DiffSeries(base.Series(), moved.Series())
	if len(d.Changed) != 1 || d.Changed[0].Series != `regret_seconds{scheme="ina-sync"}` || d.Changed[0].Delta != 0.5 ||
		len(d.OnlyA)+len(d.OnlyB) != 0 {
		t.Errorf("diff after moving ina-sync's regret = %+v, want its regret_seconds +0.5 alone", d)
	}

	a, b := sampleLedger(), sampleLedger()
	b.AddCollective(a.Collective(1)) // one more fallback in B
	d = telemetry.DiffSeries(a.Summarize().Series(), b.Summarize().Series())
	var got []string
	for _, c := range d.Changed {
		got = append(got, c.Series)
	}
	want := []string{`chosen{scheme="ina-sync"}`, "collective", `executed{scheme="ring"}`, "fallbacks",
		"regret_seconds", `regret_seconds{scheme="ring"}`, "stalled"}
	if !slices.Equal(got, want) {
		t.Errorf("diff after one more fallback changed %q, want %q", got, want)
	}
}

func TestShadowRanking(t *testing.T) {
	l := NewLedger()
	l.SetScaleMeta(ScaleMeta{Fleet: 3, InitialActive: 1, MinActive: 1, Interval: 1, GPUsPerInstance: 2, SLA: true})
	// Step 1 (t=0): actual fleet scales out under backlog; "grow" agrees,
	// "never" holds and would have run the same window one instance short.
	r1 := l.AddScale(ScaleRecord{
		T: 0, Primary: "grow", Decision: "scale_out", Applied: "activate", Instance: 1,
		Signals: ScaleSignalsRec{Backlog: 5, Active: 1},
		Shadows: []ShadowDecision{{Law: "grow", Decision: "scale_out"}, {Law: "never", Decision: "hold"}},
	})
	r1.Outcome = &Outcome{Completed: 8, Met: 8, Horizon: 1}
	// Step 2 (t=1): both hold, quiet window.
	r2 := l.AddScale(ScaleRecord{
		T: 1, Primary: "grow", Decision: "hold", Applied: "none", Instance: -1,
		Signals: ScaleSignalsRec{Backlog: 0, Active: 2},
		Shadows: []ShadowDecision{{Law: "grow", Decision: "hold"}, {Law: "never", Decision: "hold"}},
	})
	r2.Outcome = &Outcome{Completed: 4, Met: 3, Horizon: 1}
	l.SetEnd(2)

	ranks := l.ShadowRanking()
	if len(ranks) != 2 {
		t.Fatalf("got %d ranks", len(ranks))
	}
	by := map[string]ShadowRank{}
	for _, r := range ranks {
		by[r.Law] = r
	}
	grow := by["grow"]
	// grow's replayed fleet: 2 after step 1, 2 after step 2; windows are 1 s
	// each with 2 GPUs/instance -> 2*1*2 + 2*1*2 = 8 GPU-seconds.
	if grow.EstGPUSeconds != 8 {
		t.Errorf("grow GPU-seconds = %g, want 8", grow.EstGPUSeconds)
	}
	// grow matches the actual fleet everywhere: only the realized miss counts.
	if grow.ChargedMisses != 1 || grow.Deficit != 0 {
		t.Errorf("grow charged/deficit = %d/%d, want 1/0", grow.ChargedMisses, grow.Deficit)
	}
	if want := 1 - 1.0/12.0; math.Abs(grow.EstAttainment-want) > 1e-12 {
		t.Errorf("grow attainment = %g, want %g", grow.EstAttainment, want)
	}
	never := by["never"]
	// never stays at 1 instance: 1*1*2 + 1*1*2 = 4 GPU-seconds, but step 1's
	// window (backlog under deficit) is charged entirely.
	if never.EstGPUSeconds != 4 {
		t.Errorf("never GPU-seconds = %g, want 4", never.EstGPUSeconds)
	}
	if never.ChargedMisses != 8+1 || never.Deficit != 1 {
		t.Errorf("never charged/deficit = %d/%d, want 9/1", never.ChargedMisses, never.Deficit)
	}
	if grow.Rank != 1 || never.Rank != 2 {
		t.Errorf("ranks: grow=%d never=%d", grow.Rank, never.Rank)
	}
	if (*Ledger)(nil).ShadowRanking() != nil {
		t.Error("nil ledger produced a ranking")
	}
}
