package topology

import (
	"fmt"
	"testing"
)

// line builds a simple chain topology a-b-c-... with the given bandwidths.
func line(t *testing.T, bws ...float64) (*Graph, []NodeID) {
	t.Helper()
	g := NewGraph()
	ids := make([]NodeID, len(bws)+1)
	for i := range ids {
		ids[i] = g.AddNode(Node{Kind: KindGPU, Server: i})
	}
	for i, bw := range bws {
		g.AddEdge(ids[i], ids[i+1], LinkEthernet, bw, 1e-6)
	}
	return g, ids
}

func TestAddNodeIndexes(t *testing.T) {
	g := NewGraph()
	gpu := g.AddNode(Node{Kind: KindGPU, Server: 3, GPUType: "A100", MemoryBytes: 40 * GiB, FreeBytes: 40 * GiB})
	sw := g.AddNode(Node{Kind: KindAccessSwitch, INASlots: 16})
	host := g.AddNode(Node{Kind: KindHost, Server: 99})

	if len(g.GPUs()) != 1 || g.GPUs()[0] != gpu {
		t.Errorf("GPUs() = %v", g.GPUs())
	}
	if len(g.Switches()) != 1 || g.Switches()[0] != sw {
		t.Errorf("Switches() = %v", g.Switches())
	}
	if g.Node(host).Server != -1 {
		t.Error("non-GPU Server not normalized to -1")
	}
	if got := g.ServerGPUs(3); len(got) != 1 || got[0] != gpu {
		t.Errorf("ServerGPUs(3) = %v", got)
	}
	if g.NumServers() != 1 {
		t.Errorf("NumServers = %d", g.NumServers())
	}
}

func TestEdgeOther(t *testing.T) {
	g, ids := line(t, 1e9)
	e := g.Edge(0)
	if e.Other(ids[0]) != ids[1] || e.Other(ids[1]) != ids[0] {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(NodeID(99))
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Node{Kind: KindGPU})
	for _, fn := range []func(){
		func() { g.AddEdge(a, a, LinkNVLink, 1, 0) },
		func() { g.AddEdge(a, NodeID(5), LinkNVLink, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad AddEdge did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSameServer(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Node{Kind: KindGPU, Server: 1})
	b := g.AddNode(Node{Kind: KindGPU, Server: 1})
	c := g.AddNode(Node{Kind: KindGPU, Server: 2})
	sw := g.AddNode(Node{Kind: KindAccessSwitch})
	if !g.SameServer(a, b) {
		t.Error("a,b should share a server")
	}
	if g.SameServer(a, c) || g.SameServer(a, sw) {
		t.Error("false positives in SameServer")
	}
}

func TestValidate(t *testing.T) {
	g, _ := line(t, 100)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.Edge(0).Available = 1000 // > capacity
	if err := g.Validate(); err == nil {
		t.Error("available > capacity not caught")
	}
	g.Edge(0).Available = 100
	g.Edge(0).Capacity = 0
	if err := g.Validate(); err == nil {
		t.Error("zero capacity not caught")
	}
}

func TestNodeKindStrings(t *testing.T) {
	cases := map[NodeKind]string{
		KindGPU: "gpu", KindAccessSwitch: "access-switch",
		KindCoreSwitch: "core-switch", KindHost: "host",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !KindAccessSwitch.IsSwitch() || !KindCoreSwitch.IsSwitch() || KindGPU.IsSwitch() {
		t.Error("IsSwitch wrong")
	}
	links := map[LinkKind]string{
		LinkEthernet: "ethernet", LinkNVLink: "nvlink", LinkPCIe: "pcie", LinkTrunk: "trunk",
	}
	for k, want := range links {
		if k.String() != want {
			t.Errorf("LinkKind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// Validate checks structural invariants the tests hold every builder to:
// adjacency consistency and positive capacities. It returns the first violation found, or nil.
func (g *Graph) Validate() error {
	for i := range g.edges {
		e := &g.edges[i]
		if e.Capacity <= 0 {
			return fmt.Errorf("edge %d (%s) has non-positive capacity %g", e.ID, e.Kind, e.Capacity)
		}
		if e.Available < 0 || e.Available > e.Capacity {
			return fmt.Errorf("edge %d available %g outside [0, %g]", e.ID, e.Available, e.Capacity)
		}
		if e.Latency < 0 {
			return fmt.Errorf("edge %d has negative latency", e.ID)
		}
	}
	for n, edges := range g.adj {
		for _, eid := range edges {
			e := &g.edges[eid]
			if e.A != NodeID(n) && e.B != NodeID(n) {
				return fmt.Errorf("adjacency of node %d lists foreign edge %d", n, eid)
			}
		}
	}
	return nil
}
