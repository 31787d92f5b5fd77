package serving

import (
	"heroserve/internal/netsim"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// NewOn is New on the given engine and network, whichever simulator paths
// the build selects, so that one test binary can run a System on both.
func NewOn(g *topology.Graph, dep Deployment, opts Options, eng *sim.Engine, net *netsim.Network) (*System, error) {
	return newOn(g, dep, opts, eng, net)
}
