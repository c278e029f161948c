// Command cedvet runs the repo's custom static analyzers — the mechanical
// form of the engine's concurrency and metric invariants (pooled-scratch
// release, session confinement, snapshot immutability, hardened HTTP
// serving, honest stage accounting, an unbroken cancellation chain).
//
// Usage:
//
//	cedvet [-run list] [-list] [packages]
//
// With no packages it checks ./... relative to the current directory.
// Findings print as file:line:col: [analyzer] message, and any finding
// makes the exit status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ced/internal/analysis"
	"ced/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cedvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range registry.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := registry.All()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := registry.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "cedvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "cedvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cedvet: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "cedvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cedvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
