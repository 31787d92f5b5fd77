// Package perf is the simulator's performance observatory: a low-overhead,
// wall-clock-aware self-profiling layer over the engine and netsim fast
// paths. Everything else in internal/telemetry observes the *modeled* system
// in sim-time; this package observes the *simulator itself* in wall-time —
// how fast sim-time advances per wall-second, how much of the wall goes to
// water-filling and to the observatory's own tax, how deep the event queue
// runs, and how large the water-filling components the incremental allocator
// actually touches are.
//
// Two properties are load-bearing:
//
//   - Purity. The Sampler is a strict observer: it schedules no events,
//     cancels nothing, and registers no metrics, so the simulated schedule —
//     and therefore every deterministic surface (.prom, the span trace,
//     trace.tsv, decisions.tsv, alerts.tsv) — is byte-identical with
//     sampling on or off, on both the fast and reference simulator paths.
//     scripts/golden.sh runs the pinned matrix with the sampler armed (every
//     serve -out run arms it) to prove it continuously.
//
//   - Overhead. Wall-clock reads are strided: only every SampleEvery-th
//     event is timed, so the steady-state per-event cost is two interface
//     calls and a counter increment, with zero heap allocations (pinned by
//     TestSamplerSteadyStateAllocs). The water-filling time is a scaled
//     estimate from the sampled reallocations; the sampler measures and
//     reports its own overhead so its tax is visible rather than hidden. The
//     budget — asserted by the bench harness — is <2% of end-to-end
//     wall-clock.
//
// Wall-clock data is inherently nondeterministic, which is exactly why it
// lives here and never inside a deterministic surface: the Report goes only
// to its own bundle file (perf.json) and its own daemon endpoint (/perf).
package perf

import (
	"math/bits"
	"time"

	"heroserve/internal/sim"
)

// DefaultSampleEvery is the default event-sampling stride. At ~1µs of work
// per simulated event, timing 1-in-64 keeps the observatory's overhead well
// under the 2% wall-clock budget while still collecting thousands of samples
// per second of wall time.
const DefaultSampleEvery = 64

// maxProgressPoints bounds the progress curve kept in the report. When the
// buffer fills, every other point is dropped and the recording stride
// doubles, so arbitrarily long runs keep an evenly spaced curve in O(1)
// memory with no steady-state allocation.
const maxProgressPoints = 512

// flowHistBuckets is the number of power-of-two component-size buckets:
// 1, 2, 4, ..., 256, and a final ≥512 overflow bucket.
const flowHistBuckets = 10

// ProgressPoint is one sample of the run's progress curve: how much
// wall-clock had elapsed when the simulation reached a given sim-time.
type ProgressPoint struct {
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
}

// monoBase anchors the package's monotonic clock; readings are nanoseconds
// since process-local base, offset by 1 so a valid reading is never 0 (0 is
// the "unsampled" token).
var monoBase = time.Now()

func monoNanos() int64 { return int64(time.Since(monoBase)) + 1 }

// Sampler is the observatory's collection half: it implements sim.Profiler
// and netsim.PerfProbe and accumulates wall-clock, queue, and water-filling
// statistics for one serving run. It is single-goroutine, owned by the
// simulation loop, like the Registry and Tracer it sits beside. Use one
// Sampler per run; Report renders the accumulated state.
type Sampler struct {
	every int // sampling stride; BeginEvent times every every-th event

	now func() int64 // monotonic nanos; injectable for tests

	eng *sim.Engine // bound engine, for QueueStats snapshots

	// Run window.
	started   bool
	wallStart int64
	wallEnd   int64
	simStart  float64
	simEnd    float64
	simNow    float64

	// Event accounting.
	events        uint64
	sampledEvents uint64
	selfNS        int64
	armed         bool // current event is being timed; propagates to nested probes

	// Queue high-water marks, observed at sample boundaries.
	peakLive       int
	peakTombstones int

	// Water-filling accounting. Counts cover every reallocation; timing only
	// the ones that land inside a sampled event.
	reallocs         uint64
	sampledReallocs  uint64
	sampledReallocNS int64
	compLinks        uint64
	compFlows        uint64
	compRounds       uint64
	maxCompFlows     int
	maxCompLinks     int
	flowHist         [flowHistBuckets]uint64

	// Progress curve: decimated, fixed-capacity.
	points      []ProgressPoint
	pointStride uint64 // record a point every pointStride-th sampled boundary
	pointTick   uint64
}

// NewSampler returns a sampler timing every every-th event (0 or negative
// selects DefaultSampleEvery).
func NewSampler(every int) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{
		every:       every,
		now:         monoNanos,
		points:      make([]ProgressPoint, 0, maxProgressPoints),
		pointStride: 1,
	}
}

// BindEngine attaches the engine whose queue the sampler snapshots at sample
// boundaries. Callers still need eng.SetProfiler(s) to route events here;
// internal/serving wires both.
func (s *Sampler) BindEngine(eng *sim.Engine) { s.eng = eng }

// Start marks the beginning of the measured run at the given sim-time.
func (s *Sampler) Start(simNow float64) {
	s.started = true
	s.simStart = simNow
	s.simNow = simNow
	s.wallStart = s.now()
}

// Finish marks the end of the measured run.
func (s *Sampler) Finish(simNow float64) {
	s.simEnd = simNow
	s.simNow = simNow
	s.wallEnd = s.now()
}

// BeginEvent implements sim.Profiler. It is the per-event hot path: count,
// note sim-time, and only on every every-th event arm the sample (token 1),
// so reallocations inside it are timed.
func (s *Sampler) BeginEvent(at sim.Time) int64 {
	s.events++
	s.simNow = at
	if s.events%uint64(s.every) != 0 {
		return 0
	}
	s.armed = true
	return 1
}

// EndEvent implements sim.Profiler. For sampled events it runs the boundary
// work — queue snapshot and progress point — timing that work as the
// observatory's own overhead.
func (s *Sampler) EndEvent(token int64) {
	if token == 0 {
		return
	}
	t := s.now()
	s.sampledEvents++
	s.armed = false
	s.boundary(t)
}

// boundary runs the once-per-sample bookkeeping. t is the wall reading taken
// at the end of the sampled event; the time boundary itself consumes is
// accounted to selfNS so the report can show the observatory's tax.
func (s *Sampler) boundary(t int64) {
	if s.eng != nil {
		st := s.eng.QueueStats()
		if st.Live > s.peakLive {
			s.peakLive = st.Live
		}
		if st.Tombstones > s.peakTombstones {
			s.peakTombstones = st.Tombstones
		}
	}

	// Progress point, decimating when the buffer fills.
	s.pointTick++
	if s.pointTick%s.pointStride == 0 {
		if len(s.points) == maxProgressPoints {
			for i := 0; i < maxProgressPoints/2; i++ {
				s.points[i] = s.points[2*i+1]
			}
			s.points = s.points[:maxProgressPoints/2]
			s.pointStride *= 2
		}
		s.points = append(s.points, ProgressPoint{
			SimSeconds:  s.simNow,
			WallSeconds: float64(t-s.wallStart) / 1e9,
			Events:      s.events,
		})
	}

	s.selfNS += s.now() - t
}

// ReallocStart implements netsim.PerfProbe. Water-filling is timed only when
// it runs inside an already-sampled event, so the per-reallocation cost in
// the common case is a single branch.
func (s *Sampler) ReallocStart() int64 {
	if !s.armed {
		return 0
	}
	return s.now()
}

// ReallocDone implements netsim.PerfProbe. Component sizes are counted on
// every reallocation — they are the observatory's view of how much work the
// incremental allocator avoids — while wall timing closes only for sampled
// ones.
func (s *Sampler) ReallocDone(token int64, links, flows, rounds int) {
	s.reallocs++
	s.compLinks += uint64(links)
	s.compFlows += uint64(flows)
	s.compRounds += uint64(rounds)
	if flows > s.maxCompFlows {
		s.maxCompFlows = flows
	}
	if links > s.maxCompLinks {
		s.maxCompLinks = links
	}
	s.flowHist[flowBucket(flows)]++
	if token != 0 {
		s.sampledReallocNS += s.now() - token
		s.sampledReallocs++
	}
}

// flowBucket maps a component flow count to its power-of-two histogram
// bucket: 0 → "≤1", 1 → "≤2", ..., 8 → "≤256", 9 → "≥512" (overflow).
func flowBucket(flows int) int {
	if flows <= 1 {
		return 0
	}
	b := bits.Len(uint(flows - 1))
	if b >= flowHistBuckets {
		b = flowHistBuckets - 1
	}
	return b
}
