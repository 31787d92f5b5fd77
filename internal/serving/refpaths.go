//go:build refpaths

package serving

// referencePaths runs every System on the reference simulator: the
// binary-heap event queue and the global water-filling allocator. Output is
// bit-identical to the fast paths; building with -tags refpaths lets the
// golden matrix and the tests prove it.
const referencePaths = true
