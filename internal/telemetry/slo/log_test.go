package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"heroserve/internal/telemetry"
)

// sampleLog builds a log exercising every lifecycle shape: a fired-and-
// resolved alert, a canceled pending, an alert still firing at run end, and
// an open pending.
func sampleLog() *Log {
	return &Log{
		Meta: Meta{
			Rules: []Rule{
				{Name: "burn", Kind: KindBurnRate, Severity: SevCritical, Objective: ObjAttainment,
					Target: 0.9, Fast: BurnWindow{10, 6}, Slow: BurnWindow{40, 3}},
				{Name: "kv", Kind: KindKVSaturation, Severity: SevWarning, Threshold: 0.9, For: 5},
				{Name: "queue", Kind: KindQueueGrowth, Severity: SevWarning, Over: 15, Threshold: 1},
				{Name: "quiet", Kind: KindFaultBudget, Severity: SevInfo, Over: 20, Threshold: 0.1},
			},
			Every: 1,
			End:   60,
		},
		Alerts: []Alert{
			{Rule: "burn", Kind: KindBurnRate, Severity: SevCritical, State: StateResolved,
				Since: 5, FiredAt: 5, ResolvedAt: 25, Value: 7.5,
				Cause: &Cause{
					Values:   []CauseValue{{Name: "fast_burn", Value: 7.5}},
					Stages:   []StageShare{{Stage: "decode-queue", Seconds: 4, Share: 0.5}},
					Dominant: "decode-queue",
				}},
			{Rule: "kv", Kind: KindKVSaturation, Severity: SevWarning, State: StateResolved,
				Since: 10, FiredAt: -1, ResolvedAt: 12, Value: 0.91},
			{Rule: "burn", Kind: KindBurnRate, Severity: SevCritical, State: StateFiring,
				Since: 50, FiredAt: 50, ResolvedAt: -1, Value: 9},
			{Rule: "queue", Kind: KindQueueGrowth, Severity: SevWarning, State: StatePending,
				Since: 58, FiredAt: -1, ResolvedAt: -1, Value: 1.4},
		},
	}
}

func TestLogJSONRoundTrip(t *testing.T) {
	in := sampleLog()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out.Alerts) != len(in.Alerts) || len(out.Meta.Rules) != len(in.Meta.Rules) {
		t.Fatalf("shape lost: %d alerts, %d rules", len(out.Alerts), len(out.Meta.Rules))
	}
	if out.Alerts[0].Cause == nil || out.Alerts[0].Cause.Dominant != "decode-queue" {
		t.Errorf("cause lost: %+v", out.Alerts[0].Cause)
	}
	if out.Alerts[1].FiredAt != -1 {
		t.Errorf("canceled pending FiredAt = %g", out.Alerts[1].FiredAt)
	}
	// Re-encoding is byte-identical — the serialization is deterministic.
	var buf2 bytes.Buffer
	if err := out.WriteJSON(&buf2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("round-trip not byte-identical")
	}
}

// TestFloatSpecials checks that an alert value of ±Inf or NaN survives the
// JSON round trip, and that a bad float string is rejected.
func TestFloatSpecials(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1.5, 0} {
		b, err := json.Marshal(Alert{Value: telemetry.JSONFloat(v)})
		if err != nil {
			t.Fatalf("marshal %g: %v", v, err)
		}
		var back Alert
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		got := float64(back.Value)
		if math.IsNaN(v) != math.IsNaN(got) || (!math.IsNaN(v) && got != v) {
			t.Errorf("%g round-tripped to %g via %s", v, got, b)
		}
	}
	var a Alert
	if err := json.Unmarshal([]byte(`{"value":"huge"}`), &a); err == nil {
		t.Errorf("bad float string accepted")
	}
}

func TestLogFilter(t *testing.T) {
	l := sampleLog()
	if got := len(l.Filter("firing", "", 0, 0).Alerts); got != 1 {
		t.Errorf("state filter kept %d", got)
	}
	if got := len(l.Filter("", "burn", 0, 0).Alerts); got != 2 {
		t.Errorf("rule filter kept %d", got)
	}
	if got := len(l.Filter("", "", 10, 50).Alerts); got != 2 {
		t.Errorf("window filter kept %d", got)
	}
	if got := len(l.Filter("", "", 10, 0).Alerts); got != 3 {
		t.Errorf("open-ended window kept %d", got)
	}
	if got := len(l.Filter("resolved", "kv", 0, 0).Alerts); got != 1 {
		t.Errorf("combined filter kept %d", got)
	}
	// Filter preserves meta so downstream summaries stay armed-rule-complete.
	if got := len(l.Filter("firing", "", 0, 0).Meta.Rules); got != 4 {
		t.Errorf("filter dropped meta rules: %d", got)
	}
}

func TestSummarize(t *testing.T) {
	s := sampleLog().Summarize()
	if s.Alerts != 4 || s.Fired != 2 || s.Resolved != 1 || s.Canceled != 1 || s.FiringAtEnd != 1 {
		t.Fatalf("totals: %+v", s)
	}
	if s.Worst != "critical" {
		t.Errorf("worst = %q", s.Worst)
	}
	// One row per armed rule, sorted, including the alert-free "quiet".
	if len(s.Rules) != 4 {
		t.Fatalf("rows: %d", len(s.Rules))
	}
	for i, want := range []string{"burn", "kv", "queue", "quiet"} {
		if s.Rules[i].Rule != want {
			t.Errorf("row %d = %q, want %q", i, s.Rules[i].Rule, want)
		}
	}
	burn := s.Rules[0]
	// 5..25 resolved plus 50..60 still firing at End=60.
	if burn.Fired != 2 || burn.Resolved != 1 || burn.FiringSeconds != 30 {
		t.Errorf("burn row: %+v", burn)
	}
	if s.Rules[1].Canceled != 1 {
		t.Errorf("kv row: %+v", s.Rules[1])
	}
	if s.Rules[3].Fired != 0 {
		t.Errorf("quiet row: %+v", s.Rules[3])
	}
}

func TestSummaryString(t *testing.T) {
	var nilSummary *Summary
	if got := nilSummary.String(); got != "none" {
		t.Errorf("nil summary = %q", got)
	}
	empty := (&Log{Meta: Meta{Rules: []Rule{{Name: "a"}, {Name: "b"}}}}).Summarize()
	if got := empty.String(); got != "none fired (2 rules armed)" {
		t.Errorf("quiet run = %q", got)
	}
	busy := sampleLog().Summarize().String()
	for _, want := range []string{"2 fired", "1 resolved", "1 canceled pending", "1 still firing", "worst critical"} {
		if !strings.Contains(busy, want) {
			t.Errorf("busy summary %q lacks %q", busy, want)
		}
	}
}

func TestWriteTSVDeterministic(t *testing.T) {
	l := sampleLog()
	var a, b bytes.Buffer
	if err := l.WriteTSV(&a); err != nil {
		t.Fatalf("tsv: %v", err)
	}
	if err := l.WriteTSV(&b); err != nil {
		t.Fatalf("tsv: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("tsv not deterministic")
	}
	out := a.String()
	for _, want := range []string{"## alerts", "## rules", "## totals",
		"burn\tcritical\tresolved\t5\t5\t25\t7.5\tdecode-queue",
		"kv\twarning\tresolved\t10\t-\t12\t0.91\t-",
		"worst_firing\tcritical"} {
		if !strings.Contains(out, want) {
			t.Errorf("tsv lacks %q:\n%s", want, out)
		}
	}
}

func TestTimelineAndDiffRender(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().FprintTimeline(&buf); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"FIRING", "resolved", "canceled", "dominant decode-queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	empty := &Log{Meta: Meta{Rules: []Rule{{Name: "a"}}}}
	if err := empty.FprintTimeline(&buf); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
	if !strings.Contains(buf.String(), "(no alerts)") {
		t.Errorf("empty timeline = %q", buf.String())
	}

	buf.Reset()
	if err := FprintDiff(&buf, empty, sampleLog()); err != nil {
		t.Fatalf("diff: %v", err)
	}
	out = buf.String()
	if !strings.Contains(out, "alerts 0 -> 4 (+4)") || !strings.Contains(out, "rule burn") {
		t.Errorf("diff output:\n%s", out)
	}
}

// FuzzReadLog: ReadLog never panics; a log it accepts summarizes, filters
// and renders without panicking and survives WriteJSON→ReadLog→WriteJSON
// byte for byte. The seed log is a serve -out alerts.json.
func FuzzReadLog(f *testing.F) {
	seed, err := os.ReadFile("testdata/alerts.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	var buf bytes.Buffer
	if err := sampleLog().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"meta":{"rules":[{"name":"a","severity":"info"}],"end":-1},"alerts":[{"rule":"b","state":"firing","since":3,"fired_at":-1,"value":"+Inf"}]}`))
	f.Add([]byte(`{"alerts":[{"cause":{"values":[{"value":"NaN"}],"stages":[{}]}}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = l.Summarize().String()
		rule := ""
		if len(l.Alerts) > 0 {
			rule = l.Alerts[0].Rule
		}
		filtered := l.Filter(string(StateFiring), rule, 1, 10)
		for _, render := range []func(io.Writer) error{l.FprintTimeline, l.FprintSummary, l.WriteTSV, filtered.WriteTSV} {
			if err := render(io.Discard); err != nil {
				t.Fatalf("render accepted log: %v", err)
			}
		}
		if err := FprintDiff(io.Discard, l, filtered); err != nil {
			t.Fatalf("diff accepted log: %v", err)
		}
		var first, second bytes.Buffer
		if err := l.WriteJSON(&first); err != nil {
			t.Fatalf("write accepted log: %v", err)
		}
		again, err := ReadLog(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
