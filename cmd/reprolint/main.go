// Command reprolint runs the repository's static-analysis suite (see
// internal/lint) over module packages: six analyzers over one Program —
// every linted view plus the cross-package call graph. It is the
// multichecker `make ci` runs; stock `go vet` runs before it in the same CI
// target, covering the standard passes (copylocks among them: lock copies
// are vet's rule, not reprolint's).
//
// Usage:
//
//	reprolint [-analyzers list] [-list] [packages ...]
//
// Package patterns are directories relative to the working directory, with
// ./... expansion; the default is ./... . Intentional exceptions are
// annotated at the offending line:
//
//	//lint:allow <analyzer> <reason>
//
// Exit codes: 0 clean, 1 violations, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list analyzers and exit")
		names = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *names != "" {
		var err error
		if analyzers, err = lint.ByName(strings.Split(*names, ",")); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := lint.LintPackages(cwd, fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	// Paths print relative to the working directory (the notes embed paths
	// too): readable, and clickable in an editor's terminal.
	prefix := cwd + string(os.PathSeparator)
	for _, d := range diags {
		s := strings.ReplaceAll(d.String(), "\n\t"+prefix, "\n\t")
		fmt.Fprintln(stdout, strings.TrimPrefix(s, prefix))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "reprolint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}
