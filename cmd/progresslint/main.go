// Command progresslint is the engine's multichecker: it loads the
// module, runs every analyzer in internal/analysis/checks over the
// requested packages, and exits non-zero if any invariant is violated.
// It is the CI teeth behind DESIGN.md §7 ("Checked invariants").
//
// Usage:
//
//	progresslint [-json] [-list] [-assert-guarded list] [packages...]
//
// With no package patterns it checks ./... from the current module.
// Violations are printed one per line as file:line:col: [analyzer]
// message; -json emits them as a stable JSON array instead (schema:
// internal/analysis.JSONDiagnostic, documented in the README).
// -assert-guarded takes a comma-separated list of pkg.Type entries
// (e.g. storage.Disk,catalog.Catalog) and fails the run if any listed
// struct is absent from the sharedstate analyzer's inventory of the
// engine-core packages or is unguarded there — CI's proof that the
// multi-core refactor's latched structs stay latched.
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
	"strings"

	"progressdb/internal/analysis"
	"progressdb/internal/analysis/checks"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (stable schema)")
	list := flag.Bool("list", false, "list analyzers and exit")
	assertGuarded := flag.String("assert-guarded", "",
		"comma-separated pkg.Type list that must appear guarded in the sharedstate inventory (e.g. storage.Disk,catalog.Catalog)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: progresslint [-json] [-list] [-assert-guarded list] [packages...]\n\n"+
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
	diags, state, err := analysis.RunWithState(mod.Fset, mod.Packages, analyzers)
	if err != nil {
		fatal(err)
	}

	if *assertGuarded != "" {
		if err := checkGuarded(state, *assertGuarded); err != nil {
			fmt.Fprintln(os.Stderr, "progresslint:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		data, err := analysis.DiagnosticsJSON(diags)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "progresslint: %d finding(s) in %d package(s)\n",
			len(diags), len(mod.Packages))
		os.Exit(1)
	}
}

// checkGuarded enforces -assert-guarded: every listed pkg.Type (package
// matched by its last path element) must be present in the sharedstate
// inventory with at least one mutex guard and not flagged unguarded.
func checkGuarded(state *analysis.State, list string) error {
	rep, ok := checks.SharedStateReport(state)
	if !ok {
		return fmt.Errorf("-assert-guarded needs the sharedstate analyzer's inventory: " +
			"include the engine-core packages in the run")
	}
	var bad []string
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		dot := strings.LastIndex(entry, ".")
		if dot < 1 || dot == len(entry)-1 {
			return fmt.Errorf("-assert-guarded entry %q: want pkg.Type", entry)
		}
		pkg, typ := entry[:dot], entry[dot+1:]
		found := false
		for _, s := range rep.Structs {
			if s.Type != typ || (s.Package != pkg && !strings.HasSuffix(s.Package, "/"+pkg)) {
				continue
			}
			found = true
			if s.Unguarded || len(s.Guards) == 0 {
				bad = append(bad, fmt.Sprintf("%s is unguarded (%s)", entry, s.Pos))
			}
			break
		}
		if !found {
			bad = append(bad, fmt.Sprintf("%s not found in the sharedstate inventory", entry))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("assert-guarded failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "progresslint:", err)
	os.Exit(2)
}
