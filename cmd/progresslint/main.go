// Command progresslint is the engine's multichecker: it loads the
// module, runs every analyzer in internal/analysis/checks over the
// requested packages, and exits non-zero if any invariant is violated.
// It is the CI teeth behind DESIGN.md §7 ("Checked invariants").
//
// Usage:
//
//	progresslint [-list] [packages...]
//
// With no package patterns it checks ./... from the current module.
// Violations are printed one per line as file:line:col: [analyzer]
// message.
//
// Suppress a finding with //lint:ignore <analyzer> <reason> on the
// offending line or the line above; the suppression inventory is
// itself audited (unknown analyzer names, missing reasons, and
// suppressions that no longer suppress anything are reported).
//
// Exit codes: 0 clean, 1 findings, 2 load/internal failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"progressdb/internal/analysis"
	"progressdb/internal/analysis/checks"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: progresslint [-list] [packages...]\n\n"+
				"Checks the module's engine invariants (DESIGN.md §7).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := checks.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := analysis.ModuleRoot("")
	if err != nil {
		fatal(err)
	}
	mod, err := analysis.Load(root, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(mod.Fset, mod.Packages, analyzers)
	if err != nil {
		fatal(err)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "progresslint: %d finding(s) in %d package(s)\n",
			len(diags), len(mod.Packages))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "progresslint:", err)
	os.Exit(2)
}
