// Command topoviz emits a Graphviz DOT rendering of a cluster topology —
// GPUs clustered by server (colored by type), switches, and links styled by
// technology — for inspecting the fabrics the experiments run on.
//
// Usage:
//
//	topoviz -topology testbed | dot -Tsvg > testbed.svg
//	topoviz -topology pod8 -servers 16
package main

import (
	"flag"
	"fmt"
	"os"

	"heroserve/internal/cli"
	"heroserve/internal/topology"
)

func main() {
	topo := flag.String("topology", "testbed", "testbed | pod2 | pod8 | pcie")
	servers := flag.Int("servers", 12, "pod server count")
	cli.ParseFlags("topoviz")

	if *servers < 1 {
		fmt.Fprintf(os.Stderr, "topoviz: -servers must be at least 1, got %d\n", *servers)
		os.Exit(2)
	}
	var g *topology.Graph
	var err error
	if *topo == "pcie" {
		g = topology.Pod(topology.PodConfig{
			Servers: *servers, Server: topology.L40Server(),
			Tracks: 1, ServersPerGroup: *servers, CoreSwitches: 1,
		})
	} else {
		g, err = topology.ByName(*topo, *servers)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "topoviz: %v\n", err)
		os.Exit(2)
	}
	writeDOT(g)
}

func writeDOT(g *topology.Graph) {
	fmt.Println("graph cluster {")
	fmt.Println("  layout=neato; overlap=false; splines=true;")
	fmt.Println("  node [fontname=\"monospace\", fontsize=9];")

	// Servers become subgraph clusters.
	for s := 0; s < g.NumServers(); s++ {
		fmt.Printf("  subgraph cluster_srv%d {\n    label=\"server %d\";\n", s, s)
		for _, id := range g.ServerGPUs(s) {
			n := g.Node(id)
			color := map[string]string{
				"A100": "#8fd19e", "V100": "#9ec5fe", "L40": "#ffda6a",
			}[n.GPUType]
			if color == "" {
				color = "#dddddd"
			}
			label := n.Name
			if n.NUMA > 0 || hasNUMA(g, s) {
				label = fmt.Sprintf("%s\\nnuma%d", n.Name, n.NUMA)
			}
			fmt.Printf("    n%d [label=\"%s\", shape=box, style=filled, fillcolor=\"%s\"];\n", id, label, color)
		}
		fmt.Println("  }")
	}
	for _, id := range g.Switches() {
		n := g.Node(id)
		shape := "diamond"
		if n.Kind == topology.KindCoreSwitch {
			shape = "doublecircle"
		}
		fmt.Printf("  n%d [label=\"%s\\n%d slots\", shape=%s, style=filled, fillcolor=\"#f1aeb5\"];\n",
			id, n.Name, n.INASlots, shape)
	}
	// Hosts.
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(topology.NodeID(i))
		if n.Kind == topology.KindHost {
			fmt.Printf("  n%d [label=\"%s\", shape=ellipse];\n", n.ID, n.Name)
		}
	}

	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(topology.EdgeID(i))
		style := map[topology.LinkKind]string{
			topology.LinkNVLink:   "color=\"#2f9e44\", penwidth=2",
			topology.LinkPCIe:     "color=\"#e8890c\", style=dashed",
			topology.LinkEthernet: "color=\"#1971c2\"",
			topology.LinkTrunk:    "color=\"#862e9c\", penwidth=3",
		}[e.Kind]
		fmt.Printf("  n%d -- n%d [%s, tooltip=\"%s %.0f GB/s\"];\n",
			e.A, e.B, style, e.Kind, e.Capacity/1e9)
	}
	fmt.Println("}")
}

// hasNUMA reports whether a server spans multiple NUMA domains.
func hasNUMA(g *topology.Graph, server int) bool {
	for _, id := range g.ServerGPUs(server) {
		if g.Node(id).NUMA > 0 {
			return true
		}
	}
	return false
}
