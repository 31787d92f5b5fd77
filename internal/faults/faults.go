// Package faults is a deterministic, seeded fault-injection layer for the
// simulated serving system. Faults are scheduled on the same discrete-event
// engine as everything else, so a faulted run is exactly as reproducible as
// a clean one: same seed, same schedule, same byte-identical results.
//
// Three fault classes cover the failure surface the online scheduler
// (§III-D) must degrade gracefully against:
//
//   - Link faults: an Ethernet/trunk link's capacity drops to a fraction of
//     nominal (LinkDegrade) or to zero (factor 0, a blackout), then
//     recovers. Flows crossing a blacked-out link stall; the scheduler sees
//     +Inf utilization on the link and prices out every policy crossing it.
//   - Switch faults: an aggregation switch loses aggregator slots to a
//     competing tenant (SlotExhaustion) — new synchronous INA jobs fall back
//     to ring — or reboots outright (SwitchReboot), wiping the data plane;
//     in-flight INA collectives complete via the ATP-style host-aggregation
//     fallback at a goodput penalty.
//   - Agent stalls: the GPU agents stop answering the control plane's
//     policy-table sync (AgentStall), so tables serve stale costs until the
//     stall clears.
//
// Schedules compose with background load (bursts, elephant lanes): both are
// just events on the engine. Overlapping degrade windows on one link nest
// (the link recovers when the last window ends, at the most severe factor
// seen while nested).
package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// LinkDegrade scales an edge's capacity by Factor for Duration seconds
	// (Factor 0 = blackout).
	LinkDegrade Kind = iota
	// SlotExhaustion seizes Slots aggregator slots at Switch for Duration
	// seconds.
	SlotExhaustion
	// SwitchReboot takes Switch offline for Duration seconds, wiping its
	// data plane and demoting in-flight INA collectives to host aggregation.
	SwitchReboot
	// AgentStall suspends policy-table synchronization for Duration seconds.
	AgentStall
)

func (k Kind) String() string {
	switch k {
	case LinkDegrade:
		return "link-degrade"
	case SlotExhaustion:
		return "slot-exhaustion"
	case SwitchReboot:
		return "switch-reboot"
	case AgentStall:
		return "agent-stall"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault: it applies at At and reverts at At+Duration.
type Event struct {
	Kind     Kind
	At       float64 // simulated seconds
	Duration float64 // seconds until recovery

	Edge   topology.EdgeID // LinkDegrade
	Factor float64         // LinkDegrade: remaining capacity fraction in [0,1]

	Switch topology.NodeID // SlotExhaustion, SwitchReboot
	Slots  int             // SlotExhaustion: slots to seize
}

// Validate rejects structurally impossible events. At and Duration must be
// finite: a NaN time would reach the engine, and a recovery at +Inf would
// stretch the run's duration to +Inf. The negated comparisons reject NaN.
func (e *Event) Validate() error {
	if !(e.At >= 0) || math.IsInf(e.At, 1) || !(e.Duration > 0) || math.IsInf(e.Duration, 1) {
		return fmt.Errorf("faults: event %v at %g for %g: need finite At >= 0 and Duration > 0", e.Kind, e.At, e.Duration)
	}
	switch e.Kind {
	case LinkDegrade:
		if !(e.Factor >= 0 && e.Factor < 1) {
			return fmt.Errorf("faults: link-degrade factor %g outside [0, 1)", e.Factor)
		}
	case SlotExhaustion:
		if e.Slots <= 0 {
			return fmt.Errorf("faults: slot-exhaustion needs Slots > 0")
		}
	}
	return nil
}

// Schedule is an ordered set of fault events.
type Schedule struct {
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	for i := range s.Events {
		if err := s.Events[i].Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Staller is the control-plane hook an AgentStall event drives; implemented
// by scheduler.Controller.
type Staller interface {
	StallFor(seconds float64)
}

// Record is one applied fault, for telemetry and reports.
type Record struct {
	Event       Event
	AppliedAt   float64
	RecoveredAt float64 // At + Duration
}

// Injector arms a Schedule onto a live simulation. One Injector serves one
// (engine, network, comm) triple; build a fresh one per run.
type Injector struct {
	eng  *sim.Engine
	net  *netsim.Network
	comm *collective.Comm

	stallers []Staller
	// stallUntil lets stallers registered mid-window (the controller is
	// created lazily on the first all-reduce) pick up the remaining stall.
	stallUntil float64

	// linkDepth/linkFloor implement nested degrade windows per edge.
	linkDepth map[topology.EdgeID]int
	linkFloor map[topology.EdgeID]float64

	records []Record

	// Telemetry (nil when off). Injections and recoveries surface as trace
	// instants on the control-plane track plus a per-kind counter.
	tel         *telemetry.Hub
	telInjected [4]*telemetry.Counter // indexed by Kind
}

// SetTelemetry arms fault metrics and trace instants.
func (inj *Injector) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	inj.tel = h
	for k := LinkDegrade; k <= AgentStall; k++ {
		inj.telInjected[k] = h.Metrics.Counter("faults_injected_total",
			"Fault events applied, by kind.", []string{"kind"}, k.String())
	}
}

// instant emits a fault trace instant on the control-plane track.
func (inj *Injector) instant(name string, ev Event) {
	if inj.tel == nil {
		return
	}
	args := telemetry.Args{telemetry.Num("duration", ev.Duration)}
	switch ev.Kind {
	case LinkDegrade:
		args = append(args, telemetry.Int("edge", int(ev.Edge)), telemetry.Num("factor", ev.Factor))
	case SlotExhaustion:
		args = append(args, telemetry.Int("slots", ev.Slots), telemetry.Int("switch", int(ev.Switch)))
	case SwitchReboot:
		args = append(args, telemetry.Int("switch", int(ev.Switch)))
	}
	inj.tel.Trace.Instant(telemetry.ControlTID, "fault", name, args)
}

// NewInjector returns an injector over the network and (optionally nil)
// collective executor.
func NewInjector(net *netsim.Network, comm *collective.Comm) *Injector {
	return &Injector{
		eng:       net.Engine(),
		net:       net,
		comm:      comm,
		linkDepth: make(map[topology.EdgeID]int),
		linkFloor: make(map[topology.EdgeID]float64),
	}
}

// RegisterStaller subscribes a control-plane component to AgentStall events.
// A staller registered inside an active stall window inherits its remainder.
func (inj *Injector) RegisterStaller(s Staller) {
	inj.stallers = append(inj.stallers, s)
	if now := inj.eng.Now(); now < inj.stallUntil {
		s.StallFor(inj.stallUntil - now)
	}
}

// Arm schedules every event of the schedule on the engine. It panics on an
// invalid schedule: fault plans are experiment inputs, and a silently
// dropped fault would invalidate the measurement.
func (inj *Injector) Arm(s Schedule) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	events := slices.Clone(s.Events)
	inj.eng.PostEach(len(events),
		func(i int) float64 { return events[i].At },
		func(i int) { inj.apply(events[i]) })
}

// Records returns the faults applied so far (in application order).
func (inj *Injector) Records() []Record {
	return append([]Record(nil), inj.records...)
}

// apply fires one event and schedules its recovery.
func (inj *Injector) apply(ev Event) {
	now := inj.eng.Now()
	inj.records = append(inj.records, Record{Event: ev, AppliedAt: now, RecoveredAt: now + ev.Duration})
	inj.telInjected[ev.Kind].Inc()
	inj.instant(ev.Kind.String(), ev)
	switch ev.Kind {
	case LinkDegrade:
		inj.linkDepth[ev.Edge]++
		floor, nested := inj.linkFloor[ev.Edge]
		if !nested || ev.Factor < floor {
			floor = ev.Factor
			inj.linkFloor[ev.Edge] = floor
		}
		inj.net.SetLinkScale(ev.Edge, floor)
		inj.eng.PostAfter(ev.Duration, func() {
			inj.linkDepth[ev.Edge]--
			if inj.linkDepth[ev.Edge] <= 0 {
				delete(inj.linkDepth, ev.Edge)
				delete(inj.linkFloor, ev.Edge)
				inj.net.SetLinkScale(ev.Edge, 1)
				inj.instant(ev.Kind.String()+"-recovered", ev)
			}
		})
	case SlotExhaustion:
		sw := inj.dataPlane(ev.Switch)
		if sw == nil {
			return
		}
		seized := sw.SeizeSlots(ev.Slots)
		inj.eng.PostAfter(ev.Duration, func() {
			sw.RestoreSlots(seized)
			inj.instant(ev.Kind.String()+"-recovered", ev)
		})
	case SwitchReboot:
		sw := inj.dataPlane(ev.Switch)
		if sw == nil {
			return
		}
		sw.SetOnline(false)
		if inj.comm != nil {
			inj.comm.NotifySwitchFault(ev.Switch)
		}
		inj.eng.PostAfter(ev.Duration, func() {
			sw.SetOnline(true)
			inj.instant(ev.Kind.String()+"-recovered", ev)
		})
	case AgentStall:
		if until := now + ev.Duration; until > inj.stallUntil {
			inj.stallUntil = until
		}
		for _, s := range inj.stallers {
			s.StallFor(ev.Duration)
		}
		if inj.tel != nil {
			// Recovery is passive (the stall window simply elapses), so the
			// instant fires only when no longer stall window is still open.
			// Scheduled only with telemetry armed: a telemetry-off run keeps
			// its exact pre-telemetry event sequence.
			inj.eng.PostAfter(ev.Duration, func() {
				if inj.eng.Now() >= inj.stallUntil {
					inj.instant(ev.Kind.String()+"-recovered", ev)
				}
			})
		}
	}
}

// dataPlane resolves the switch data plane a switch fault targets.
func (inj *Injector) dataPlane(node topology.NodeID) interface {
	SeizeSlots(int) int
	RestoreSlots(int) int
	SetOnline(bool)
} {
	if inj.comm == nil {
		return nil
	}
	if sw := inj.comm.Switch(node); sw != nil {
		return sw
	}
	return nil
}

// --- Schedule builders ---

// splitmix is the repo's standard seeded PRNG step (identical to the
// generators in serving's background-traffic injectors).
type splitmix uint64

func newSplitmix(seed int64) *splitmix {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + 1)
	return &s
}

func (s *splitmix) next() uint64 {
	*s = *s*2862933555777941757 + 3037000493
	return uint64(*s) >> 11
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *splitmix) float() float64 { return float64(s.next()%1_000_000) / 1_000_000 }

// RandomConfig parameterizes RandomSchedule.
type RandomConfig struct {
	// LinkFaults is the number of Ethernet/trunk degrade windows (every other
	// one is a full blackout).
	LinkFaults int
	// SwitchFaults is the number of switch faults (alternating slot
	// exhaustion and reboot over the INA-capable switches).
	SwitchFaults int
	// AgentStalls is the number of control-plane stall windows.
	AgentStalls int
	// MeanDuration is the average fault duration in seconds (actual
	// durations span [0.5, 1.5] x mean).
	MeanDuration float64
	// DegradeFactor is the residual capacity of a non-blackout link fault.
	DegradeFactor float64
}

// DefaultRandomConfig sizes a schedule that visibly stresses a serving run
// of the given horizon without making the fabric unusable.
func DefaultRandomConfig(horizon float64) RandomConfig {
	return RandomConfig{
		LinkFaults:    12,
		SwitchFaults:  2,
		AgentStalls:   2,
		MeanDuration:  horizon / 2,
		DegradeFactor: 0.05,
	}
}

// RandomSchedule draws a deterministic schedule over [0, horizon) from the
// seed: link faults target the serving fabric's inter-server links (GPU
// uplinks and switch trunks; NVLink stays healthy — intra-server fabrics are
// not the failure domain under study, and host uplinks carry no serving
// traffic), switch faults target INA-capable switches.
func RandomSchedule(g *topology.Graph, horizon float64, seed int64, cfg RandomConfig) Schedule {
	rng := newSplitmix(seed)
	var ethernet []topology.EdgeID
	for i := 0; i < g.NumEdges(); i++ {
		eid := topology.EdgeID(i)
		e := g.Edge(eid)
		if e.Kind != topology.LinkEthernet && e.Kind != topology.LinkTrunk {
			continue
		}
		if g.Node(e.A).Kind == topology.KindHost || g.Node(e.B).Kind == topology.KindHost {
			continue
		}
		ethernet = append(ethernet, eid)
	}
	var inaSwitches []topology.NodeID
	for _, sw := range g.Switches() {
		if g.Node(sw).INASlots > 0 {
			inaSwitches = append(inaSwitches, sw)
		}
	}
	dur := func() float64 { return cfg.MeanDuration * (0.5 + rng.float()) }
	at := func() float64 { return horizon * 0.8 * rng.float() }

	var s Schedule
	for i := 0; i < cfg.LinkFaults && len(ethernet) > 0; i++ {
		factor := cfg.DegradeFactor
		if i%2 == 1 {
			factor = 0 // every other link fault is a blackout
		}
		s.Events = append(s.Events, Event{
			Kind: LinkDegrade, At: at(), Duration: dur(),
			Edge: ethernet[rng.intn(len(ethernet))], Factor: factor,
		})
	}
	for i := 0; i < cfg.SwitchFaults && len(inaSwitches) > 0; i++ {
		sw := inaSwitches[rng.intn(len(inaSwitches))]
		if i%2 == 0 {
			s.Events = append(s.Events, Event{
				Kind: SlotExhaustion, At: at(), Duration: dur(),
				Switch: sw, Slots: g.Node(sw).INASlots,
			})
		} else {
			s.Events = append(s.Events, Event{
				Kind: SwitchReboot, At: at(), Duration: dur(), Switch: sw,
			})
		}
	}
	for i := 0; i < cfg.AgentStalls; i++ {
		s.Events = append(s.Events, Event{Kind: AgentStall, At: at(), Duration: dur()})
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}
