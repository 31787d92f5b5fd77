package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/topology"
)

// groupRun is one side of TestStartGroupMatchesSequential: a network that
// starts the same flow groups either with one StartGroup or with one
// one-path group per path and a counting barrier.
type groupRun struct {
	eng   *sim.Engine
	net   *Network
	group bool
	// log records every callback the test observes: background flow and
	// group completions, with the clock's bits.
	log []string
}

func (r *groupRun) note(what string) {
	r.log = append(r.log, fmt.Sprintf("%s@%x", what, math.Float64bits(r.eng.Now())))
}

// launch starts one flow of size per path and notes name when all have
// delivered, after delay (or inline).
func (r *groupRun) launch(name string, paths []topology.Path, size int64, delay sim.Time) {
	done := func() { r.note(name) }
	if r.group {
		r.net.StartGroup(paths, size, delay, done)
		return
	}
	left := len(paths)
	for _, p := range paths {
		startFlow(r.net, p, size, func() {
			if left--; left > 0 {
				return
			}
			if delay == Inline {
				done()
			} else {
				r.eng.PostAfter(delay, done)
			}
		})
	}
}

// groupState is the network's observable state as bits: every active
// flow's ID, rate and remaining bytes in ID order, then the completion
// timer's instant and flow, and the delivered-flow count.
func groupState(n *Network) []uint64 {
	var out []uint64
	for _, f := range n.order {
		out = append(out, uint64(f.ID), math.Float64bits(n.rateOf(f)), math.Float64bits(n.remainingOf(f)))
	}
	if n.next != nil {
		out = append(out, math.Float64bits(n.timer.At()), uint64(n.next.ID))
	}
	return append(out, math.Float64bits(n.tel.delivered.Value()))
}

// TestStartGroupMatchesSequential proves a group start is one one-path group
// per path, started one by one: on the fast and the reference allocator, on the testbed and an
// eight-track pod, a group launched into background traffic leaves every
// flow's rate and remaining bytes, and the timer's (time, flow), bit for bit
// where the one-by-one starts leave them. Stepped in lockstep afterwards,
// the two runs deliver the same flows at the same instants, and report
// background and group completions in the same order at the same times.
// Later groups reuse the recycled flows; one variant adds an edgeless path,
// whose delivery is posted in the middle of the group's held starts.
func TestStartGroupMatchesSequential(t *testing.T) {
	graphs := []struct {
		name string
		mk   func() *topology.Graph
	}{
		{"testbed", topology.Testbed},
		{"pod8", func() *topology.Graph { return topology.Pod8Tracks(4) }},
	}
	allocs := []struct {
		name   string
		newNet func(*topology.Graph, *sim.Engine) *Network
		newEng func() *sim.Engine
	}{
		{"fast", New, sim.NewEngine},
		{"ref", NewReference, sim.NewReferenceEngine},
	}
	for _, gr := range graphs {
		for _, al := range allocs {
			for _, edgeless := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/edgeless=%v", gr.name, al.name, edgeless)
				t.Run(name, func(t *testing.T) {
					g := gr.mk()
					rng := rand.New(rand.NewSource(11))
					background := buildPaths(t, g, rng, 24)
					members := buildPaths(t, g, rng, 6)
					if edgeless {
						members[2] = topology.Path{Nodes: members[2].Nodes[:1]}
					}
					sizes := make([]int64, len(background))
					for i := range sizes {
						sizes[i] = int64(rng.Intn(1<<24) + 1)
					}
					mk := func(group bool) *groupRun {
						eng := al.newEng()
						r := &groupRun{eng: eng, net: al.newNet(g, eng), group: group}
						r.net.SetTelemetry(telemetry.New())
						for i, p := range background {
							r.eng.Post(sim.Time(i%4)*1e-4, func() {
								id := r.net.nextID
								startFlow(r.net, p, sizes[i], func() { r.note(fmt.Sprintf("bg%d", id)) })
							})
						}
						// Three launches: into the busy network, again while
						// the first is in flight, and after both drained.
						r.eng.Post(2e-4, func() { r.launch("g0", members, 1<<22, 3e-5) })
						r.eng.Post(2e-4, func() { r.launch("g1", members[1:4], 1<<20, Inline) })
						r.eng.Post(0.5, func() { r.launch("g2", members, 1<<21, 0) })
						return r
					}
					seq, grp := mk(false), mk(true)
					for step := 0; ; step++ {
						a, b := seq.eng.Step(), grp.eng.Step()
						if a != b {
							t.Fatalf("step %d: Step sequential=%v group=%v", step, a, b)
						}
						if !a {
							break
						}
						if x, y := seq.eng.Now(), grp.eng.Now(); math.Float64bits(x) != math.Float64bits(y) {
							t.Fatalf("step %d: Now sequential=%g group=%g", step, x, y)
						}
						if x, y := seq.eng.Pending(), grp.eng.Pending(); x != y {
							t.Fatalf("step %d: Pending sequential=%d group=%d", step, x, y)
						}
						sa, sb := groupState(seq.net), groupState(grp.net)
						if fmt.Sprint(sa) != fmt.Sprint(sb) {
							t.Fatalf("step %d: state differs\nsequential %x\ngroup      %x", step, sa, sb)
						}
						if fmt.Sprint(seq.log) != fmt.Sprint(grp.log) {
							t.Fatalf("step %d: callbacks differ\nsequential %v\ngroup      %v", step, seq.log, grp.log)
						}
					}
					for _, name := range []string{"g0@", "g1@", "g2@"} {
						if !strings.Contains(strings.Join(grp.log, " "), name) {
							t.Errorf("group %s never completed: %v", name, grp.log)
						}
					}
					if !edgeless && len(grp.net.freeFlows) == 0 {
						t.Error("no group flow was recycled")
					}
				})
			}
		}
	}
}
