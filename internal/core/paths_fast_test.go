//go:build !refpaths

package core

// simPaths names the simulator paths this test binary runs on.
const simPaths = "fast"
