package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heroserve/internal/serving"
)

// rep is what one child process reports about one run of one realization
// of a workload. Sent, Served, Digest and the samples are deterministic
// functions of the inputs; the rest are host costs.
type rep struct {
	Seed   int64  `json:"seed"`
	Sent   int    `json:"sent"`
	Served int    `json:"served"`
	Met    int    `json:"met"` // requests within both SLA bounds
	Digest string `json:"digest"`

	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`

	// Per-request simulated latencies, seconds from each request's
	// scheduled arrival.
	TTFT []float64 `json:"ttft,omitempty"`
	TPOT []float64 `json:"tpot,omitempty"`

	// Layers holds a traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// execRep generates the realization's inputs, assembles the system, replays
// the trace and checks the outputs. tel arms telemetry with spans streamed
// to spans; pr, when non-nil, installs the traced run's probes.
func (s *spec) execRep(seed int64, scale float64, tel bool, spans io.Writer, pr *probes) (*rep, *assembled, *serving.Results, error) {
	in := s.generate(seed, scale)
	if spans == nil {
		spans = io.Discard
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	a, err := s.assemble(in, tel, spans, pr)
	if err != nil {
		return nil, nil, nil, err
	}
	t1 := time.Now()
	res := a.sys.Run(in.trace)
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	if a.hub != nil {
		if err := a.hub.Trace.CloseStream(); err != nil {
			return nil, nil, nil, fmt.Errorf("close span stream: %w", err)
		}
	}
	if err := check(len(in.trace.Requests), res); err != nil {
		return nil, nil, nil, err
	}
	r := &rep{
		Seed:       seed,
		Sent:       len(in.trace.Requests),
		Served:     res.Served,
		Met:        int(math.Round(res.Attainment(s.sla) * float64(res.Served))),
		Digest:     digest(res),
		SetupS:     t1.Sub(t0).Seconds(),
		RunS:       t2.Sub(t1).Seconds(),
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		TTFT:       res.TTFTs(),
		TPOT:       res.TPOTs(),
	}
	r.PeakRSSMiB, err = peakRSSMiB()
	return r, a, res, err
}

// check asserts every request was served and every latency is a real,
// non-negative number.
func check(sent int, res *serving.Results) error {
	if res.Served != sent {
		return fmt.Errorf("served %d of %d requests", res.Served, sent)
	}
	for _, m := range res.Requests {
		for _, v := range []float64{m.TTFT, m.TPOT} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("request %d: latency %v", m.ID, v)
			}
		}
	}
	return nil
}

// digest hashes the simulated outputs: per-request metrics, collective
// counters, simulated duration and scale events.
func digest(res *serving.Results) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	put := func(vs ...any) {
		for _, v := range vs {
			_ = binary.Write(w, binary.LittleEndian, v) // fixed-size values into a hash
		}
	}
	for _, m := range res.Requests {
		put(int64(m.ID), m.TTFT, m.TPOT, m.EndToEnd)
	}
	c := res.Comm
	put(c.RingOps, c.INASyncOps, c.INAAsyncOps, c.HeteroOps, c.Transfers,
		c.SlotFallbacks, c.FaultFallbacks, c.BytesMoved, res.Duration)
	for _, e := range res.ScaleEvents {
		put(e.T, int64(e.ID), int64(e.Active))
		_, _ = w.WriteString(e.Action)
	}
	_ = w.Flush()
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := strings.CutPrefix(string(line), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
