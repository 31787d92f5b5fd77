// Package cli holds what the commands under cmd/ share about their command
// line.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// ParseFlags parses the command line into the flags defined on
// flag.CommandLine for the command name. -h prints the flag list on stderr
// and exits 0; an unknown flag or a malformed value prints one line,
// "<name>: <error>", on stderr and exits 2.
func ParseFlags(name string) {
	fs := flag.CommandLine
	fs.Init(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(os.Args[1:])
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		fs.SetOutput(os.Stderr)
		fs.Usage()
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(2)
	}
}
