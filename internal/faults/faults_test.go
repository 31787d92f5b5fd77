package faults

import (
	"math"
	"reflect"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// testbedNet builds a network plus collective executor over the paper's
// testbed topology.
func testbedNet(t *testing.T) (*netsim.Network, *collective.Comm, *sim.Engine) {
	t.Helper()
	g := topology.Testbed()
	eng := sim.NewEngine()
	net := netsim.New(g, eng)
	comm := collective.NewComm(net, collective.NewStaticRouter(g))
	return net, comm, eng
}

// gpuUplink returns the Ethernet uplink edge of a GPU node.
func gpuUplink(t *testing.T, g *topology.Graph, gpu topology.NodeID) topology.EdgeID {
	t.Helper()
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(topology.EdgeID(i))
		if e.Kind == topology.LinkEthernet && (e.A == gpu || e.B == gpu) {
			return e.ID
		}
	}
	t.Fatalf("gpu %d has no Ethernet uplink", gpu)
	return -1
}

func TestLinkDegradeAppliesAndRecovers(t *testing.T) {
	net, comm, eng := testbedNet(t)
	eid := gpuUplink(t, net.Graph(), net.Graph().GPUs()[0])

	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: LinkDegrade, At: 1, Duration: 2, Edge: eid, Factor: 0.25},
	}})

	var during, after float64
	eng.Post(2, func() { during = net.LinkScale(eid) })
	eng.Post(3.5, func() { after = net.LinkScale(eid) })
	eng.Run()

	if during != 0.25 {
		t.Fatalf("mid-window scale %g, want 0.25", during)
	}
	if after != 1 {
		t.Fatalf("post-window scale %g, want 1", after)
	}
	recs := inj.Records()
	if len(recs) != 1 || recs[0].AppliedAt != 1 || recs[0].RecoveredAt != 3 {
		t.Fatalf("records %+v", recs)
	}
}

func TestNestedLinkWindowsRecoverAtLastEnd(t *testing.T) {
	net, comm, eng := testbedNet(t)
	eid := gpuUplink(t, net.Graph(), net.Graph().GPUs()[0])

	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: LinkDegrade, At: 1, Duration: 4, Edge: eid, Factor: 0.5},
		{Kind: LinkDegrade, At: 2, Duration: 1, Edge: eid, Factor: 0},
	}})

	samples := map[float64]float64{}
	for _, at := range []float64{1.5, 2.5, 3.5, 5.5} {
		at := at
		eng.Post(at, func() { samples[at] = net.LinkScale(eid) })
	}
	eng.Run()

	// The nested blackout deepens the degradation; the link stays at the
	// most severe factor until the last window ends.
	want := map[float64]float64{1.5: 0.5, 2.5: 0, 3.5: 0, 5.5: 1}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("scale samples %v, want %v", samples, want)
	}
}

func TestBlackoutStallsFlowUntilRecovery(t *testing.T) {
	net, comm, eng := testbedNet(t)
	g := net.Graph()
	gpu := g.GPUs()[0]
	eid := gpuUplink(t, g, gpu)
	e := g.Edge(eid)
	sw := e.A
	if sw == gpu {
		sw = e.B
	}

	// 125 MB over a 12.5 GB/s uplink: 10 ms of serialization.
	const bytes = 125_000_000
	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: LinkDegrade, At: 0.005, Duration: 1, Edge: eid, Factor: 0},
	}})

	var doneAt float64 = -1
	path := topology.Path{Nodes: []topology.NodeID{gpu, sw}, Edges: []topology.EdgeID{eid}}
	net.StartGroup([]topology.Path{path}, bytes, netsim.Inline, func() { doneAt = eng.Now() })

	var utilDuring float64
	eng.Post(0.5, func() { utilDuring = net.EdgeUtilization(eid) })
	eng.Run()

	if !math.IsInf(utilDuring, 1) {
		t.Fatalf("blacked-out link utilization %g, want +Inf", utilDuring)
	}
	// Half the flow serialized before the blackout; the rest waits for
	// recovery at t=1.005: finish at 1.005 + 0.005 (plus link latency).
	if doneAt < 1.005 || doneAt > 1.02 {
		t.Fatalf("flow finished at %g, want stalled past blackout until ~1.01", doneAt)
	}
	if net.LinkDown(eid) {
		t.Fatal("link still down after recovery")
	}
}

func TestSlotExhaustionSeizesAndRestores(t *testing.T) {
	net, comm, eng := testbedNet(t)
	sw := net.Graph().Switches()[0]
	ds := comm.Switch(sw)
	pool := ds.PoolSize()

	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: SlotExhaustion, At: 1, Duration: 2, Switch: sw, Slots: pool},
	}})

	var seizedDuring, freeDuring, freeAfter int
	eng.Post(2, func() { seizedDuring, freeDuring = ds.SeizedSlots(), ds.FreeSlots() })
	eng.Post(4, func() { freeAfter = ds.FreeSlots() })
	eng.Run()

	if seizedDuring != pool || freeDuring != 0 {
		t.Fatalf("during exhaustion: seized %d free %d, want %d/0", seizedDuring, freeDuring, pool)
	}
	if freeAfter != pool {
		t.Fatalf("after restore: free %d, want %d", freeAfter, pool)
	}
}

func TestSwitchRebootDemotesInflightINA(t *testing.T) {
	net, comm, eng := testbedNet(t)
	g := net.Graph()
	sw := g.Switches()[0]

	// Two leaders on different servers, both uplinked to switch 0.
	group := collective.NewGroup(g, []topology.NodeID{g.GPUs()[0], g.GPUs()[4]})
	var cleanDone, faultDone float64

	// Reference run on a healthy data plane (fresh fabric, same shape).
	_, refComm, refEng := testbedNet(t)
	refComm.INAAllReduce(group, sw, 64<<20, 1, 0, func() { cleanDone = refEng.Now() })
	refEng.Run()

	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: SwitchReboot, At: cleanDone / 2, Duration: 0.2, Switch: sw},
	}})
	comm.INAAllReduce(group, sw, 64<<20, 1, 0, func() { faultDone = eng.Now() })
	eng.Run()

	if got := comm.Counters().FaultFallbacks; got != 1 {
		t.Fatalf("FaultFallbacks %d, want 1", got)
	}
	if faultDone <= cleanDone {
		t.Fatalf("rebooted op finished at %g, not slower than clean %g", faultDone, cleanDone)
	}
	ds := comm.Switch(sw)
	if !ds.Online() {
		t.Fatal("switch still offline after reboot window")
	}
}

func TestSwitchOfflineRejectsNewINA(t *testing.T) {
	net, comm, eng := testbedNet(t)
	g := net.Graph()
	sw := g.Switches()[0]
	group := collective.NewGroup(g, []topology.NodeID{g.GPUs()[0], g.GPUs()[4]})

	inj := NewInjector(net, comm)
	inj.Arm(Schedule{Events: []Event{
		{Kind: SwitchReboot, At: 0.5, Duration: 10, Switch: sw},
	}})
	// Start an INA op while the switch is down: it must fall back to ring.
	eng.Post(1, func() {
		comm.INAAllReduce(group, sw, 1<<20, 1, 0, func() {})
	})
	eng.Run()

	c := comm.Counters()
	if c.SlotFallbacks != 1 || c.RingOps != 1 {
		t.Fatalf("counters %+v, want 1 slot fallback ring op", c)
	}
}

// stubStaller records StallFor calls.
type stubStaller struct{ got []float64 }

func (s *stubStaller) StallFor(d float64) { s.got = append(s.got, d) }

func TestAgentStallDrivesStallers(t *testing.T) {
	net, comm, eng := testbedNet(t)
	inj := NewInjector(net, comm)

	early := &stubStaller{}
	inj.RegisterStaller(early)
	inj.Arm(Schedule{Events: []Event{
		{Kind: AgentStall, At: 1, Duration: 4},
	}})

	// A staller registered mid-window (the lazily created controller)
	// inherits the remaining stall.
	late := &stubStaller{}
	eng.Post(3, func() { inj.RegisterStaller(late) })
	eng.Run()

	if !reflect.DeepEqual(early.got, []float64{4}) {
		t.Fatalf("early staller calls %v, want [4]", early.got)
	}
	if !reflect.DeepEqual(late.got, []float64{2}) {
		t.Fatalf("late staller calls %v, want [2] (remaining window)", late.got)
	}
}

func TestArmPanicsOnInvalidSchedule(t *testing.T) {
	net, comm, _ := testbedNet(t)
	inj := NewInjector(net, comm)
	defer func() {
		if recover() == nil {
			t.Fatal("Arm accepted an invalid schedule")
		}
	}()
	inj.Arm(Schedule{Events: []Event{{Kind: LinkDegrade, At: 0, Duration: -1}}})
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"good degrade", Event{Kind: LinkDegrade, At: 1, Duration: 1, Factor: 0.5}, true},
		{"blackout", Event{Kind: LinkDegrade, At: 0, Duration: 1, Factor: 0}, true},
		{"negative at", Event{Kind: LinkDegrade, At: -1, Duration: 1}, false},
		{"zero duration", Event{Kind: AgentStall, At: 1, Duration: 0}, false},
		{"factor one", Event{Kind: LinkDegrade, At: 1, Duration: 1, Factor: 1}, false},
		{"no slots", Event{Kind: SlotExhaustion, At: 1, Duration: 1, Slots: 0}, false},
		{"good seize", Event{Kind: SlotExhaustion, At: 1, Duration: 1, Slots: 8}, true},
		{"good reboot", Event{Kind: SwitchReboot, At: 1, Duration: 1}, true},
		{"NaN at", Event{Kind: AgentStall, At: math.NaN(), Duration: 1}, false},
		{"+Inf at", Event{Kind: AgentStall, At: math.Inf(1), Duration: 1}, false},
		{"NaN duration", Event{Kind: SwitchReboot, At: 1, Duration: math.NaN()}, false},
		{"+Inf duration", Event{Kind: SwitchReboot, At: 1, Duration: math.Inf(1)}, false},
		{"NaN factor", Event{Kind: LinkDegrade, At: 1, Duration: 1, Factor: math.NaN()}, false},
		{"-Inf factor", Event{Kind: LinkDegrade, At: 1, Duration: 1, Factor: math.Inf(-1)}, false},
	}
	for _, c := range cases {
		if err := c.ev.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRandomScheduleDeterministicAndSane(t *testing.T) {
	g := topology.Testbed()
	cfg := DefaultRandomConfig(20)
	a := RandomSchedule(g, 20, 7, cfg)
	b := RandomSchedule(g, 20, 7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := RandomSchedule(g, 20, 8, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) != cfg.LinkFaults+cfg.SwitchFaults+cfg.AgentStalls {
		t.Fatalf("got %d events, want %d", len(a.Events), cfg.LinkFaults+cfg.SwitchFaults+cfg.AgentStalls)
	}
	for i, ev := range a.Events {
		if i > 0 && ev.At < a.Events[i-1].At {
			t.Fatal("events not sorted by time")
		}
		if ev.At < 0 || ev.At >= 20 {
			t.Fatalf("event %d at %g outside horizon", i, ev.At)
		}
		if ev.Kind == LinkDegrade {
			e := g.Edge(ev.Edge)
			if e.Kind != topology.LinkEthernet && e.Kind != topology.LinkTrunk {
				t.Fatalf("link fault targets %v link", e.Kind)
			}
			if g.Node(e.A).Kind == topology.KindHost || g.Node(e.B).Kind == topology.KindHost {
				t.Fatal("link fault targets a host uplink")
			}
		}
	}
}
