package workload

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"heroserve/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(Chatbot, 1).Generate(50, 2)
	b := NewGenerator(Chatbot, 1).Generate(50, 2)
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := NewGenerator(Chatbot, 2).Generate(50, 2)
	same := true
	for i := range a.Requests {
		if a.Requests[i] != c.Requests[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestArrivalsSortedAndRateRoughlyRight(t *testing.T) {
	tr := NewGenerator(Chatbot, 3).Generate(5000, 10)
	times := make([]float64, len(tr.Requests))
	for i, r := range tr.Requests {
		times[i] = r.Arrival
	}
	if !sort.Float64sAreSorted(times) {
		t.Fatal("arrivals not sorted")
	}
	rate := float64(len(times)) / tr.Duration()
	if rate < 9 || rate > 11 {
		t.Errorf("realized rate = %g, want ~10", rate)
	}
}

func TestChatbotLengthStatistics(t *testing.T) {
	tr := NewGenerator(Chatbot, 4).Generate(20000, 1)
	var in, out []float64
	for _, r := range tr.Requests {
		in = append(in, float64(r.Input))
		out = append(out, float64(r.Output))
		if r.Input < 4 || r.Input > 2048 {
			t.Fatalf("chatbot input %d outside clamp", r.Input)
		}
		if r.Output < 4 || r.Output > 1024 {
			t.Fatalf("chatbot output %d outside clamp", r.Output)
		}
	}
	meanIn := stats.Mean(in)
	if meanIn < 150 || meanIn > 350 {
		t.Errorf("chatbot mean input = %g, want a few hundred tokens", meanIn)
	}
	meanOut := stats.Mean(out)
	if meanOut < 150 || meanOut > 350 {
		t.Errorf("chatbot mean output = %g", meanOut)
	}
}

func TestSummarizationLengthStatistics(t *testing.T) {
	tr := NewGenerator(Summarization, 5).Generate(20000, 1)
	var in, out []float64
	for _, r := range tr.Requests {
		in = append(in, float64(r.Input))
		out = append(out, float64(r.Output))
	}
	meanIn := stats.Mean(in)
	if meanIn < 6000 || meanIn > 12000 {
		t.Errorf("summarization mean input = %g, want ~9k tokens", meanIn)
	}
	meanOut := stats.Mean(out)
	if meanOut < 100 || meanOut > 300 {
		t.Errorf("summarization mean output = %g, want short summaries", meanOut)
	}
	// Summaries are much shorter than documents.
	if meanOut*10 > meanIn {
		t.Error("summarization outputs should be far shorter than inputs")
	}
}

func TestMeanHelpersConsistent(t *testing.T) {
	// The unclamped lognormal mean of a length distribution.
	mean := func(d lengthDist) float64 { return math.Exp(d.mu + d.sigma*d.sigma/2) }
	if mean(summInput) <= mean(chatbotInput) {
		t.Error("summarization inputs should be longer on average")
	}
	if math.Abs(mean(chatbotInput)-math.Exp(5.5)) > 1 {
		t.Errorf("chatbot mean input = %g", mean(chatbotInput))
	}
	if Chatbot.String() != "chatbot" || Summarization.String() != "summarization" {
		t.Error("kind strings")
	}
}

func TestBatchStats(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Input: 10, Output: 5},
		{Input: 20, Output: 7},
	}}
	s := tr.BatchStats(2)
	if s.Kin != 30 || s.Kin2 != 100+400 || s.Kout != 12 || s.Q != 2 {
		t.Errorf("BatchStats = %+v", s)
	}
	// Cyclic extension for q > len.
	s3 := tr.BatchStats(3)
	if s3.Kin != 40 {
		t.Errorf("cyclic Kin = %d, want 40", s3.Kin)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty trace accepted")
		}
	}()
	(&Trace{}).BatchStats(1)
}

func TestGeneratePanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewGenerator(Chatbot, 1).Generate(0, 1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := NewGenerator(Summarization, 6).Generate(20, 0.5)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Requests) != len(tr.Requests) {
		t.Fatal("round trip lost data")
	}
	for i := range tr.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	if _, err := Decode(bytes.NewReader([]byte("{bad"))); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestDecodeRejectsTrailingData: a trace followed by anything but
// whitespace is an error; the newline Encode ends with, and more, is not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := NewGenerator(Chatbot, 1).Generate(3, 1).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail string
		ok   bool
	}{{"", true}, {" \t\r\n", true}, {"garbage", false}, {"{}", false}, {"]", false}} {
		_, err := Decode(strings.NewReader(buf.String() + c.tail))
		if (err == nil) != c.ok || err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("trace + %q: err %v, want ok=%v and a one-line error", c.tail, err, c.ok)
		}
	}
}

// TestDecodeRejectsUnreplayableRecords: every record the simulator could not
// replay is an error naming the record by index and ID.
func TestDecodeRejectsUnreplayableRecords(t *testing.T) {
	ok := `{"id":0,"arrival":0.5,"input":8,"output":4}`
	for _, c := range []struct{ rec, want string }{
		{`{"id":7,"arrival":-1,"input":8,"output":4}`, "request 1 (id 7): negative arrival -1"},
		{`{"id":7,"arrival":0.25,"input":8,"output":4}`, "request 1 (id 7): arrival 0.25 before the previous request's 0.5"},
		{`{"id":7,"arrival":1,"input":-5,"output":4}`, "request 1 (id 7): non-positive input length -5"},
		{`{"id":7,"arrival":1,"input":8,"output":0}`, "request 1 (id 7): non-positive output length 0"},
	} {
		_, err := Decode(strings.NewReader(`{"requests":[` + ok + `,` + c.rec + `]}`))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.rec, err, c.want)
		}
	}
	if _, err := Decode(strings.NewReader(`{"requests":[` + ok + `,` + ok + `]}`)); err != nil {
		t.Errorf("equal arrivals rejected: %v", err)
	}
	inf := &Trace{Requests: []Request{{Arrival: math.Inf(1), Input: 1, Output: 1}}}
	if err := inf.validate(); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
		t.Errorf("infinite arrival: err %v", err)
	}
}

// FuzzDecode: Decode never panics, and any trace it accepts survives
// Encode→Decode→Encode byte for byte.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := NewGenerator(Chatbot, 3).Generate(4, 2).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"name":"x<&>","requests":[{"id":1,"arrival":0,"input":1,"output":1}]}`))
	f.Add([]byte(`{"requests":[{"id":0,"arrival":-1,"input":8,"output":4}]}`))
	f.Add([]byte(`{"requests":[{"arrival":1e-320,"input":1,"output":9}],"extra":[1,2]} trailing`))
	f.Add([]byte(`{"requests":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.Encode(&first); err != nil {
			t.Fatalf("encode accepted trace: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, first.Bytes())
		}
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestDurationEmptyTrace(t *testing.T) {
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration")
	}
}

func TestBurstTrain(t *testing.T) {
	bursts := BurstTrain(1, 100, 0.5, 4, 1<<20)
	if len(bursts) == 0 {
		t.Fatal("no bursts")
	}
	prev := 0.0
	for _, b := range bursts {
		if b.At <= prev || b.At > 100 {
			t.Fatalf("burst at %g out of order/horizon", b.At)
		}
		prev = b.At
		if b.Flows < 1 || b.Flows > 8 {
			t.Fatalf("burst flows = %d", b.Flows)
		}
		if b.Bytes != 1<<20 {
			t.Fatalf("burst bytes = %d", b.Bytes)
		}
	}
	// ~0.5 bursts/s over 100 s: expect within loose bounds.
	if len(bursts) < 25 || len(bursts) > 90 {
		t.Errorf("burst count = %d, want ~50", len(bursts))
	}
	defer func() {
		if recover() == nil {
			t.Error("bad parameters accepted")
		}
	}()
	BurstTrain(1, -1, 1, 1, 1)
}
