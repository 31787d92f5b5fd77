package switchsim

import (
	"fmt"

	"heroserve/internal/telemetry"
)

// AggLatency is the in-switch aggregation latency per message, treated as a
// constant ~1 us by the paper (Eq. 8, citing Tofino measurements).
const AggLatency = 1e-6

// DefaultEntryBytes is the aggregator payload size M_ina (Table I): the
// number of bytes of vector data carried per aggregation packet. 256 B = 64
// fixed-point int32 elements, the usual SwitchML MTU-friendly choice.
const DefaultEntryBytes = 256

// JobID identifies an aggregation job (one tensor-parallel group's
// all-reduce stream).
type JobID int32

// Mode selects the aggregation discipline of a job.
type Mode uint8

const (
	// ModeSync is SwitchML-style synchronous aggregation: the job owns a
	// contiguous slot window; chunk seq maps to slot seq%window; a chunk
	// arriving while its slot still serves an earlier round is dropped and
	// retransmitted by the worker.
	ModeSync Mode = iota
	// ModeAsync is ATP-style asynchronous aggregation: all jobs share the
	// pool; a chunk hashes to a slot and claims it opportunistically; losing
	// the race makes the worker fall back to end-host aggregation.
	ModeAsync
)

func (m Mode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "async"
}

// Verdict is the data plane's disposition of one ingested packet.
type Verdict uint8

const (
	// VerdictAbsorbed means the contribution was folded into a slot; more
	// contributions are pending.
	VerdictAbsorbed Verdict = iota
	// VerdictComplete means this contribution was the last one: the packet's
	// slot emitted the aggregate (multicast to the group) and was freed.
	VerdictComplete
	// VerdictDrop means no slot was available (sync: slot busy with an older
	// round; async: lost the slot race). The worker retransmits (sync) or
	// falls back to host aggregation (async).
	VerdictDrop
	// VerdictStale means this worker's bit was already set for the round — a
	// duplicate/retransmission; ignored.
	VerdictStale
)

func (v Verdict) String() string {
	switch v {
	case VerdictAbsorbed:
		return "absorbed"
	case VerdictComplete:
		return "complete"
	case VerdictDrop:
		return "drop"
	case VerdictStale:
		return "stale"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Packet is one aggregation contribution.
type Packet struct {
	Job    JobID
	Seq    int64 // chunk sequence number within the job's stream
	Worker int   // worker index within the job's fan-in, < 64
	Values []int32
}

// slot is one aggregator: a fixed-point partial-sum vector, a bitmap of seen
// workers, and the (job, seq) round key it currently serves.
type slot struct {
	job    JobID
	seq    int64
	seen   uint64
	count  int
	values []int32
	busy   bool
}

// Counters are the "hardware counters" the control plane polls (§IV):
// cumulative packet dispositions and byte counts.
type Counters struct {
	PacketsIn  int64
	BytesIn    int64
	Aggregates int64 // completed rounds (multicasts emitted)
	Drops      int64
	Stale      int64
}

type jobState struct {
	mode   Mode
	fanIn  int
	window []int // slot indices owned (sync mode)
}

// Switch is the data plane + control plane of one programmable switch.
type Switch struct {
	name     string
	slots    []slot
	jobs     map[JobID]*jobState
	free     []int // free slot indices (sync allocation pool)
	seized   []int // slot indices seized by fault injection (unavailable)
	offline  bool  // true while the switch is rebooting
	counters Counters
	entryLen int // vector elements per packet

	// Telemetry handles (nil when telemetry is off; all are nil-safe).
	telVerdicts   [4]*telemetry.Counter // indexed by Verdict
	telJobsSync   *telemetry.Counter
	telJobsAsync  *telemetry.Counter
	telExhaustion *telemetry.Counter
	telOccupancy  *telemetry.Gauge
	telSeized     *telemetry.Gauge
}

// SetTelemetry arms per-switch metrics on the hub's registry. The switch name
// is the label, so multiple switches share the same families.
func (s *Switch) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	m := h.Metrics
	for v := VerdictAbsorbed; v <= VerdictStale; v++ {
		s.telVerdicts[v] = m.Counter("switch_packets_total",
			"Aggregation packets by data-plane verdict.",
			[]string{"switch", "verdict"}, s.name, v.String())
	}
	s.telJobsSync = m.Counter("switch_jobs_total",
		"Aggregation jobs registered.", []string{"switch", "mode"}, s.name, ModeSync.String())
	s.telJobsAsync = m.Counter("switch_jobs_total",
		"Aggregation jobs registered.", []string{"switch", "mode"}, s.name, ModeAsync.String())
	s.telExhaustion = m.Counter("switch_slot_exhaustion_total",
		"Sync registrations granted fewer slots than requested.", []string{"switch"}, s.name)
	s.telOccupancy = m.Gauge("switch_slot_occupancy",
		"Slots held by registered sync jobs.", []string{"switch"}, s.name)
	s.telSeized = m.Gauge("switch_slots_seized",
		"Slots seized by fault injection.", []string{"switch"}, s.name)
}

// recordSlots refreshes the slot gauges after any pool transition.
func (s *Switch) recordSlots() {
	if s.telOccupancy == nil {
		return
	}
	s.telOccupancy.Set(float64(len(s.slots) - len(s.free) - len(s.seized)))
	s.telSeized.Set(float64(len(s.seized)))
}

// New returns a switch with the given aggregator-slot pool size and entry
// payload of entryBytes bytes (4 bytes per fixed-point element).
func New(name string, slots int, entryBytes int) *Switch {
	if slots <= 0 {
		panic("switchsim: slot pool must be positive")
	}
	if entryBytes < 4 {
		entryBytes = DefaultEntryBytes
	}
	s := &Switch{
		name:     name,
		slots:    make([]slot, slots),
		jobs:     make(map[JobID]*jobState),
		entryLen: entryBytes / 4,
	}
	s.free = make([]int, slots)
	for i := range s.free {
		s.free[i] = i
	}
	return s
}

// PoolSize returns the total slot count.
func (s *Switch) PoolSize() int { return len(s.slots) }

// FreeSlots returns the number of unallocated slots (sync pool accounting).
func (s *Switch) FreeSlots() int { return len(s.free) }

// EntryElems returns the number of int32 elements per aggregation packet.
func (s *Switch) EntryElems() int { return s.entryLen }

// EntryBytes returns the aggregation payload bytes per packet (M_ina).
func (s *Switch) EntryBytes() int { return s.entryLen * 4 }

// Counters returns a snapshot of the hardware counters.
func (s *Switch) Counters() Counters { return s.counters }

// Online reports whether the switch data plane is reachable. An offline
// (rebooting) switch accepts no new jobs and drops every packet; callers
// fall back to host-side aggregation.
func (s *Switch) Online() bool { return !s.offline }

// SetOnline transitions the switch in or out of its rebooting state. Going
// offline wipes the data plane (a reboot loses all aggregator state);
// coming back online restores an empty, fully usable slot pool (minus any
// slots still seized by SeizeSlots).
func (s *Switch) SetOnline(online bool) {
	if online == !s.offline {
		return
	}
	s.offline = !online
	if !online {
		s.wipe()
	}
}

// SeizeSlots removes up to n slots from the free pool, modelling a
// competing tenant (or control-plane fault) exhausting the aggregator
// resources. It returns the number actually seized. Seized slots survive
// reboots; release them with RestoreSlots.
func (s *Switch) SeizeSlots(n int) int {
	if n > len(s.free) {
		n = len(s.free)
	}
	if n <= 0 {
		return 0
	}
	s.seized = append(s.seized, s.free[len(s.free)-n:]...)
	s.free = s.free[:len(s.free)-n]
	s.recordSlots()
	return n
}

// RestoreSlots returns up to n previously seized slots to the free pool and
// reports how many were restored.
func (s *Switch) RestoreSlots(n int) int {
	if n > len(s.seized) {
		n = len(s.seized)
	}
	if n <= 0 {
		return 0
	}
	restored := s.seized[len(s.seized)-n:]
	s.seized = s.seized[:len(s.seized)-n]
	for _, idx := range restored {
		s.slots[idx] = slot{}
		s.free = append(s.free, idx)
	}
	s.recordSlots()
	return n
}

// SeizedSlots returns the number of slots currently held by fault injection.
func (s *Switch) SeizedSlots() int { return len(s.seized) }

// wipe clears all data-plane state: every slot, every job registration, and
// the free pool (rebuilt as all slots minus the seized set). Outstanding
// aggregation rounds are lost, exactly as on hardware when the switch
// power-cycles.
func (s *Switch) wipe() {
	seized := make(map[int]bool, len(s.seized))
	for _, idx := range s.seized {
		seized[idx] = true
	}
	for i := range s.slots {
		s.slots[i] = slot{}
	}
	s.jobs = make(map[JobID]*jobState)
	s.free = s.free[:0]
	for i := range s.slots {
		if !seized[i] {
			s.free = append(s.free, i)
		}
	}
	s.recordSlots()
}

// RegisterJob installs a job. For ModeSync it carves want slots out of the
// free pool (fewer if the pool is low) and returns the number granted; the
// job cannot aggregate with zero granted slots. For ModeAsync the grant is
// nominal (the shared pool is used) and want is returned untouched. fanIn is
// the number of workers contributing to each round (<= 64, the bitmap
// width).
func (s *Switch) RegisterJob(job JobID, mode Mode, fanIn, want int) (granted int, err error) {
	if fanIn <= 0 || fanIn > 64 {
		return 0, fmt.Errorf("switchsim: fan-in %d outside 1..64", fanIn)
	}
	if _, dup := s.jobs[job]; dup {
		return 0, fmt.Errorf("switchsim: job %d already registered", job)
	}
	js := &jobState{mode: mode, fanIn: fanIn}
	if mode == ModeSync {
		if want <= 0 {
			want = 1
		}
		n := want
		if n > len(s.free) {
			n = len(s.free)
		}
		js.window = append(js.window, s.free[len(s.free)-n:]...)
		s.free = s.free[:len(s.free)-n]
		granted = n
		s.telJobsSync.Inc()
		if granted < want {
			s.telExhaustion.Inc()
		}
		s.recordSlots()
	} else {
		granted = want
		s.telJobsAsync.Inc()
	}
	s.jobs[job] = js
	return granted, nil
}

// ReleaseJob recycles a job's slots back into the pool and forgets its
// state. Slots mid-aggregation are cleared (outstanding rounds are lost, as
// on real hardware when the control plane recycles aggressively).
func (s *Switch) ReleaseJob(job JobID) {
	js, ok := s.jobs[job]
	if !ok {
		return
	}
	if js.mode == ModeSync {
		for _, idx := range js.window {
			s.slots[idx] = slot{}
			s.free = append(s.free, idx)
		}
	} else {
		for i := range s.slots {
			if s.slots[i].busy && s.slots[i].job == job {
				s.slots[i] = slot{}
			}
		}
	}
	delete(s.jobs, job)
	s.recordSlots()
}

// Ingest processes one aggregation packet and returns the verdict plus, on
// VerdictComplete, the aggregated vector (the multicast payload).
func (s *Switch) Ingest(p Packet) (Verdict, []int32) {
	if s.offline {
		s.counters.Drops++
		s.telVerdicts[VerdictDrop].Inc()
		return VerdictDrop, nil
	}
	js, ok := s.jobs[p.Job]
	if !ok {
		s.counters.Drops++
		s.telVerdicts[VerdictDrop].Inc()
		return VerdictDrop, nil
	}
	if p.Worker < 0 || p.Worker >= js.fanIn {
		s.counters.Drops++
		s.telVerdicts[VerdictDrop].Inc()
		return VerdictDrop, nil
	}
	s.counters.PacketsIn++
	s.counters.BytesIn += int64(len(p.Values)) * 4

	var idx int
	switch js.mode {
	case ModeSync:
		if len(js.window) == 0 {
			s.counters.Drops++
			s.telVerdicts[VerdictDrop].Inc()
			return VerdictDrop, nil
		}
		idx = js.window[int(p.Seq)%len(js.window)]
	default: // ModeAsync: shared-pool hashing
		idx = int(hash2(uint64(p.Job), uint64(p.Seq)) % uint64(len(s.slots)))
	}

	sl := &s.slots[idx]
	if !sl.busy {
		// Claim the slot for this (job, seq) round.
		sl.busy = true
		sl.job = p.Job
		sl.seq = p.Seq
		sl.seen = 0
		sl.count = 0
		if cap(sl.values) < len(p.Values) {
			sl.values = make([]int32, len(p.Values))
		} else {
			sl.values = sl.values[:len(p.Values)]
			for i := range sl.values {
				sl.values[i] = 0
			}
		}
	} else if sl.job != p.Job || sl.seq != p.Seq {
		// Sync: the slot still serves an earlier round of this job.
		// Async: another job/round holds the hashed slot.
		s.counters.Drops++
		s.telVerdicts[VerdictDrop].Inc()
		return VerdictDrop, nil
	}

	bit := uint64(1) << uint(p.Worker)
	if sl.seen&bit != 0 {
		s.counters.Stale++
		s.telVerdicts[VerdictStale].Inc()
		return VerdictStale, nil
	}
	sl.seen |= bit
	sl.count++
	if len(p.Values) > len(sl.values) {
		// Grow to the longest contribution (tail chunks may be short).
		grown := make([]int32, len(p.Values))
		copy(grown, sl.values)
		sl.values = grown
	}
	for i, v := range p.Values {
		sl.values[i] = AddSat(sl.values[i], v)
	}

	if sl.count == js.fanIn {
		out := make([]int32, len(sl.values))
		copy(out, sl.values)
		*sl = slot{values: sl.values[:0]}
		s.counters.Aggregates++
		s.telVerdicts[VerdictComplete].Inc()
		return VerdictComplete, out
	}
	s.telVerdicts[VerdictAbsorbed].Inc()
	return VerdictAbsorbed, nil
}

// hash2 mixes two 64-bit values (splitmix-style), for async slot hashing.
func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SyncGoodput estimates the streaming aggregation goodput (bytes/second of
// aggregated payload) of a synchronous job, which is window-limited: with w
// slots of entryBytes each and a worker-switch-worker round trip of rtt
// seconds, at most w*entryBytes bytes complete per rtt. The physical link
// bandwidth caps the result.
func SyncGoodput(windowSlots, entryBytes int, rtt, linkBW float64) float64 {
	if windowSlots <= 0 || rtt <= 0 {
		return 0
	}
	pipe := float64(windowSlots*entryBytes) / rtt
	if pipe > linkBW {
		return linkBW
	}
	return pipe
}
