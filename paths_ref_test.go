//go:build refpaths

package heroserve

// buildTags are the tags every command this test binary runs is built
// with: refpaths, so the commands run the reference simulator paths and
// TestGoldens is the reference-path check against the same goldens.
const buildTags = "refpaths"
