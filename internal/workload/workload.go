// Package workload generates the request traces of the paper's evaluation.
// The paper replays ShareGPT (chatbot) and LongBench (summarization) with
// Poisson-generated arrival timestamps (§V, "Model and workloads setup").
// Those production traces are not redistributable, so this package
// synthesizes traces whose input/output token-length distributions match the
// published statistics of the datasets: ShareGPT conversations have short
// inputs (a few hundred tokens) and comparable outputs; LongBench documents
// have multi-thousand-token inputs and short summaries. Arrivals are Poisson
// in both cases, exactly as in the paper.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"heroserve/internal/queueing"
	"heroserve/internal/telemetry"
)

// Request is one inference request.
type Request struct {
	ID      int     `json:"id"`
	Arrival float64 `json:"arrival"` // seconds since trace start
	Input   int     `json:"input"`   // prompt tokens l_i
	Output  int     `json:"output"`  // generated tokens O_i
}

// Trace is a sequence of requests ordered by arrival time.
type Trace struct {
	Name     string    `json:"name"`
	Requests []Request `json:"requests"`
}

// Kind selects a synthetic dataset.
type Kind uint8

const (
	// Chatbot matches ShareGPT: short lognormal prompts and outputs.
	Chatbot Kind = iota
	// Summarization matches LongBench: long documents, short outputs.
	Summarization
)

func (k Kind) String() string {
	if k == Chatbot {
		return "chatbot"
	}
	return "summarization"
}

// lengthDist is a clamped lognormal token-length distribution.
type lengthDist struct {
	mu, sigma float64
	min, max  int
}

func (d lengthDist) sample(rng *rand.Rand) int {
	v := int(math.Exp(d.mu + d.sigma*rng.NormFloat64()))
	if v < d.min {
		return d.min
	}
	if v > d.max {
		return d.max
	}
	return v
}

// Published length statistics: ShareGPT means are a few hundred tokens for
// both sides; LongBench averages ~9k input tokens with short answers.
var (
	chatbotInput  = lengthDist{mu: 5.0, sigma: 1.0, min: 4, max: 2048}
	chatbotOutput = lengthDist{mu: 5.2, sigma: 0.8, min: 4, max: 1024}
	summInput     = lengthDist{mu: 9.0, sigma: 0.5, min: 1024, max: 30000}
	summOutput    = lengthDist{mu: 5.0, sigma: 0.5, min: 16, max: 512}
)

// Generator produces synthetic traces.
type Generator struct {
	kind Kind
	seed int64
}

// NewGenerator returns a trace generator for the given dataset kind and
// seed. The same (kind, seed, rate, n) always yields the same trace.
func NewGenerator(kind Kind, seed int64) *Generator {
	return &Generator{kind: kind, seed: seed}
}

// Generate produces n requests with Poisson arrivals at rate req/s.
func (g *Generator) Generate(n int, rate float64) *Trace {
	if n <= 0 {
		panic(fmt.Sprintf("workload: request count %d", n))
	}
	lengths := rand.New(rand.NewSource(g.seed))
	arrivals := queueing.NewPoisson(rate, g.seed+1)
	in, out := chatbotInput, chatbotOutput
	if g.kind == Summarization {
		in, out = summInput, summOutput
	}
	tr := &Trace{Name: g.kind.String(), Requests: make([]Request, n)}
	for i := range tr.Requests {
		tr.Requests[i] = Request{
			ID:      i,
			Arrival: arrivals.Next(),
			Input:   in.sample(lengths),
			Output:  out.sample(lengths),
		}
	}
	return tr
}

// Stats summarizes the token statistics the planner consumes (Table I):
// total/mean input tokens, squared-sum-of-inputs, and output tokens, for a
// representative batch of size Q.
type Stats struct {
	Q    int
	Kin  int64 // sum of l_i over the batch
	Kin2 int64 // sum of l_i^2
	Kout int64 // sum of O_i
}

// BatchStats computes the expected per-batch token statistics from the first
// q requests of the trace (cyclically if q exceeds the trace). It panics on
// an empty trace or non-positive q.
func (t *Trace) BatchStats(q int) Stats {
	if len(t.Requests) == 0 || q <= 0 {
		panic("workload: BatchStats on empty trace or bad batch size")
	}
	s := Stats{Q: q}
	for i := 0; i < q; i++ {
		r := t.Requests[i%len(t.Requests)]
		s.Kin += int64(r.Input)
		s.Kin2 += int64(r.Input) * int64(r.Input)
		s.Kout += int64(r.Output)
	}
	return s
}

// Duration returns the arrival time of the last request.
func (t *Trace) Duration() float64 {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Decode reads a JSON trace, with nothing but whitespace after it, and
// checks that the simulator can replay it: arrivals finite, non-negative
// and in order, and every request with a positive input and output length.
// The error names the first bad record by index and ID.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := telemetry.DecodeJSON(r, &t); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// validate reports the first request the simulator cannot replay.
func (t *Trace) validate() error {
	prev := 0.0
	for i, r := range t.Requests {
		var bad string
		switch {
		case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
			bad = fmt.Sprintf("non-finite arrival %g", r.Arrival)
		case r.Arrival < 0:
			bad = fmt.Sprintf("negative arrival %g", r.Arrival)
		case r.Arrival < prev:
			bad = fmt.Sprintf("arrival %g before the previous request's %g", r.Arrival, prev)
		case r.Input <= 0:
			bad = fmt.Sprintf("non-positive input length %d", r.Input)
		case r.Output <= 0:
			bad = fmt.Sprintf("non-positive output length %d", r.Output)
		}
		if bad != "" {
			return fmt.Errorf("workload: decode trace: request %d (id %d): %s", i, r.ID, bad)
		}
		prev = r.Arrival
	}
	return nil
}

// Burst describes one background-traffic burst: at time At, Flows transfers
// of Bytes each start between random endpoint pairs.
type Burst struct {
	At    float64
	Flows int
	Bytes int64
}

// BurstTrain generates an on/off bursty background-traffic schedule of the
// kind that degrades homogeneous INA throughput (§I): bursts arrive as a
// Poisson process at burstRate, each carrying a Poisson-ish number of flows
// around meanFlows of flowBytes each.
func BurstTrain(seed int64, horizon, burstRate float64, meanFlows int, flowBytes int64) []Burst {
	if horizon <= 0 || burstRate <= 0 || meanFlows <= 0 {
		panic("workload: bad burst-train parameters")
	}
	arr := queueing.NewPoisson(burstRate, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var out []Burst
	for {
		at := arr.Next()
		if at > horizon {
			return out
		}
		flows := 1 + rng.Intn(2*meanFlows)
		out = append(out, Burst{At: at, Flows: flows, Bytes: flowBytes})
	}
}
