package serving_test

import (
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// handoffProbe watches the KV hand-offs of a served run. It is the run's
// router, wrapped around the real one, its engine profiler and its
// reallocation probe. A KV transfer is the only route from a prefill GPU to
// a decode GPU, so per engine event it counts those routes, the
// reallocations made from the first of them on, and those the real router
// made by reading a rate, and it logs all three for every event that hands
// off. Wrapping a static router hides its type, so collectives route every
// launch uncached, which starts the same flows
// (TestStaticRouterFastPathsMatchFlowByFlow).
type handoffProbe struct {
	r               collective.Router
	net             *netsim.Network
	prefill, decode map[topology.NodeID]bool
	// read makes every route read a rate first, which settles a held
	// network: each transfer is then rated on its own, as without the hold.
	read bool

	kv, reallocs, reads int
	handoffs            []handoff
}

// handoff is one hand-off event: the KV transfers it started, the
// reallocations it made, and how many of those the router's reads made.
type handoff struct{ transfers, reallocs, reads int }

func (p *handoffProbe) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	if p.prefill[a] && p.decode[b] {
		p.kv++
	}
	if p.read {
		p.net.EdgeRate(0)
	}
	before := p.reallocs
	path, ok := p.r.Route(a, b, size)
	p.reads += p.reallocs - before
	return path, ok
}

func (p *handoffProbe) BeginEvent(sim.Time) int64 {
	p.kv, p.reallocs, p.reads = 0, 0, 0
	return 0
}

func (p *handoffProbe) EndEvent(int64) {
	if p.kv > 0 {
		p.handoffs = append(p.handoffs, handoff{p.kv, p.reallocs, p.reads})
	}
}

func (p *handoffProbe) ReallocStart() int64 {
	if p.kv > 0 {
		p.reallocs++
	}
	return 0
}

func (p *handoffProbe) ReallocDone(int64, int, int, int) {}

// TestKVHandoffReallocatesOnce pins the held hand-off. On the planned
// testbed and the planned pod, under the static router, a prefill batch's
// KV transfers (k requests times pp stages) are rated by one reallocation
// per hand-off, where rating each transfer on its own makes one per
// transfer, and both runs serve every request with the same TTFT, TPOT and
// end-to-end time. The load-aware router reads link utilization to pick
// among candidate routes, and each read settles the network: on the pod,
// where KV routes have several candidates, a hand-off still makes one
// reallocation per transfer, with the same per-request latencies either
// way. Each case runs on the fast and on the reference flow simulator.
func TestKVHandoffReallocatesOnce(t *testing.T) {
	cases := staticCases(t)
	deployments := []struct {
		name  string
		tc    staticCase
		trace *workload.Trace
	}{
		// Overloaded, so prefill batches form.
		{"testbed", cases[0], workload.NewGenerator(workload.Chatbot, 7).Generate(120, 300)},
		{"pod8", cases[4], cases[4].trace},
	}
	for _, d := range deployments {
		g := d.tc.in.Graph
		plan, err := d.tc.plan(d.tc.in)
		if err != nil {
			t.Fatal(err)
		}
		dep := plan.Deployment
		prefill, decode := map[topology.NodeID]bool{}, map[topology.NodeID]bool{}
		for _, sp := range dep.Prefill {
			for _, gpu := range sp.GPUs() {
				prefill[gpu] = true
			}
		}
		for _, sp := range dep.Decode {
			for _, gpu := range sp.GPUs() {
				decode[gpu] = true
			}
		}
		routers := []struct {
			name string
			mk   func(*netsim.Network) collective.Router
		}{
			{"static", func(*netsim.Network) collective.Router { return collective.NewStaticRouter(g) }},
			{"load-aware", func(net *netsim.Network) collective.Router {
				r := collective.NewLoadAwareRouter(g, 3)
				r.Bind(net)
				return r
			}},
		}
		sims := []struct {
			name string
			new  func() (*sim.Engine, *netsim.Network)
		}{
			{"fast", func() (*sim.Engine, *netsim.Network) {
				eng := sim.NewEngine()
				return eng, netsim.New(g, eng)
			}},
			{"reference", func() (*sim.Engine, *netsim.Network) {
				eng := sim.NewReferenceEngine()
				return eng, netsim.NewReference(g, eng)
			}},
		}
		for _, rt := range routers {
			for _, sm := range sims {
				t.Run(d.name+"/"+rt.name+"/"+sm.name, func(t *testing.T) {
					var results [2]*serving.Results
					var probes [2]*handoffProbe
					for i, read := range []bool{false, true} {
						eng, net := sm.new()
						p := &handoffProbe{net: net, prefill: prefill, decode: decode, read: read}
						eng.SetProfiler(p)
						net.SetPerf(p)
						factory := func(net *netsim.Network) collective.Router {
							p.r = rt.mk(net)
							return p
						}
						sys, err := serving.NewOn(g, dep, serving.Options{RouterFactory: factory}, eng, net)
						if err != nil {
							t.Fatal(err)
						}
						results[i], probes[i] = sys.Run(d.trace), p
					}
					checkHandoffs(t, rt.name, d.name == "pod8", probes[0], probes[1])
					a, b := results[0], results[1]
					if a.Comm != b.Comm || a.Duration != b.Duration || a.Served != b.Served {
						t.Errorf("held: served %d in %v, %+v; one by one: served %d in %v, %+v",
							a.Served, a.Duration, a.Comm, b.Served, b.Duration, b.Comm)
					}
					if len(a.Requests) != len(b.Requests) {
						t.Fatalf("%d requests held, %d one by one", len(a.Requests), len(b.Requests))
					}
					for i, m := range a.Requests {
						if m != b.Requests[i] {
							t.Fatalf("request %+v held, %+v one by one", m, b.Requests[i])
						}
					}
				})
			}
		}
	}
}

// checkHandoffs compares the hand-offs of a held run with those of the run
// that rates each transfer on its own. Each held hand-off makes one
// reallocation at the release, plus one per router read that found a
// transfer pending; the static router reads nothing. With perTransfer, some
// batched hand-off must read before every transfer.
func checkHandoffs(t *testing.T, router string, perTransfer bool, held, each *handoffProbe) {
	t.Helper()
	if len(held.handoffs) != len(each.handoffs) {
		t.Fatalf("%d hand-offs held, %d rated one by one", len(held.handoffs), len(each.handoffs))
	}
	batched, read := 0, 0
	for k, h := range held.handoffs {
		e := each.handoffs[k]
		if h.transfers != e.transfers {
			t.Fatalf("hand-off %d: %d transfers held, %d one by one", k, h.transfers, e.transfers)
		}
		if e.reallocs != e.transfers {
			t.Fatalf("hand-off %d rated one by one: %d reallocations for %d transfers", k, e.reallocs, e.transfers)
		}
		if h.reallocs != 1+h.reads || router == "static" && h.reads != 0 {
			t.Fatalf("hand-off %d: %d reallocations for %d transfers, %d of them made by the router's reads",
				k, h.reallocs, h.transfers, h.reads)
		}
		if h.transfers > 1 {
			batched++
			if h.reallocs == h.transfers {
				read++
			}
		}
	}
	if batched == 0 {
		t.Fatalf("no hand-off moved more than one transfer (%d hand-offs)", len(held.handoffs))
	}
	if router == "load-aware" && perTransfer && read == 0 {
		t.Fatalf("no batched hand-off read a rate before each transfer (%d batched)", batched)
	}
	t.Logf("%d hand-offs, %d of them batched, %d of those rated per transfer", len(held.handoffs), batched, read)
}
