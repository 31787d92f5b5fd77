package topology

import (
	"math"
	"math/rand"
	"testing"
)

// Property: every generated pod validates, has the expected GPU count, fully
// connected GPUs, and nonblocking-derated trunks per the oversubscription
// formula.
func TestQuickPodInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		cfg := PodConfig{
			Servers:         rng.Intn(20) + 1,
			Tracks:          []int{1, 2, 4, 8}[rng.Intn(4)],
			ServersPerGroup: []int{2, 4, 6, 16}[rng.Intn(4)],
		}
		g := Pod(cfg)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		if got := len(g.GPUs()); got != cfg.Servers*8 {
			t.Fatalf("trial %d: GPUs = %d, want %d", trial, got, cfg.Servers*8)
		}
		if g.NumServers() != cfg.Servers {
			t.Fatalf("trial %d: servers = %d", trial, g.NumServers())
		}
		// Every GPU reaches every other GPU through the fabric.
		gpus := g.GPUs()
		sp := g.Dijkstra(gpus[0], TransferCost(1<<20), nil)
		for _, id := range gpus {
			if math.IsInf(sp.Dist[id], 1) {
				t.Fatalf("trial %d: GPU %d unreachable", trial, id)
			}
		}
		// Every GPU has exactly one Ethernet uplink.
		for _, id := range gpus {
			eth := 0
			for _, eid := range g.Incident(id) {
				if g.Edge(eid).Kind == LinkEthernet {
					eth++
				}
			}
			if eth != 1 {
				t.Fatalf("trial %d: GPU %d has %d uplinks", trial, id, eth)
			}
		}
	}
}

// Property: round-tripping Available through drain/Reset is lossless, and
// Validate catches any out-of-range mutation.
func TestQuickAvailableInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := Testbed()
	for trial := 0; trial < 100; trial++ {
		eid := EdgeID(rng.Intn(g.NumEdges()))
		e := g.Edge(eid)
		e.Available = e.Capacity * rng.Float64()
		if err := g.Validate(); err != nil {
			t.Fatalf("in-range available rejected: %v", err)
		}
	}
	g.ResetAvailable()
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		if e.Available != e.Capacity {
			t.Fatal("reset lost capacity")
		}
	}
}

// Property: path transfer time decomposes as sum of per-edge terms, and the
// bottleneck lower-bounds the implied bandwidth.
func TestQuickPathDecomposition(t *testing.T) {
	g := Pod2Tracks(4)
	gpus := g.GPUs()
	rng := rand.New(rand.NewSource(31))
	m := g.NewMatrix(gpus, 1<<20, nil)
	for trial := 0; trial < 200; trial++ {
		a := gpus[rng.Intn(len(gpus))]
		b := gpus[rng.Intn(len(gpus))]
		p, ok := m.PathBetween(a, b)
		if !ok || p.Hops() == 0 {
			continue
		}
		size := int64(rng.Intn(1<<24) + 1)
		total := p.TransferTime(g, size)
		var sum float64
		for _, eid := range p.Edges {
			e := g.Edge(eid)
			sum += float64(size)/e.Available + e.Latency
		}
		if math.Abs(total-sum) > 1e-12 {
			t.Fatalf("transfer time decomposition broke: %g vs %g", total, sum)
		}
		bw := p.Bottleneck(g)
		if float64(size)/bw > total {
			t.Fatalf("bottleneck implies faster than total time")
		}
	}
}
