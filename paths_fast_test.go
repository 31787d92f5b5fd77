//go:build !refpaths

package heroserve

// buildTags are the tags every command this test binary runs is built
// with: none, so the commands run the fast simulator paths.
const buildTags = ""
