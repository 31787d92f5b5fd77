//go:build !refpaths

package serving

// referencePaths is false in the default build: every System runs on the
// timer-wheel event queue and the incremental water-filling allocator.
const referencePaths = false
