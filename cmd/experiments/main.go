// Command experiments regenerates every table and figure of the paper's
// evaluation section: Table 1, Figures 4–7 (Q1), 9–16 (Q2 unloaded and
// under I/O interference), 17 (Q3), 18 (Q4), 19–20 (Q5), plus the ledger
// (bench/'s twelve statements in its two engine configurations: totals,
// storage counters, every segment and every refresh), all on
// progressdb.DB. Series are written as CSV files and rendered as ASCII
// plots on stdout. Every number is virtual, so a rerun at the committed
// scale rewrites results/ byte for byte (internal/harness's golden test
// checks exactly that). An unknown -only id exits 2.
//
// Usage:
//
//	experiments [-scale 0.02] [-outdir results] [-only fig09|table1|ledger] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"progressdb/internal/harness"
)

// ASCII plot size in characters.
const plotWidth, plotHeight = 72, 14

func main() {
	scale := flag.Float64("scale", 0.02, "workload scale (1.0 = the paper's Table 1)")
	outdir := flag.String("outdir", "results", "directory for CSV output (empty = no CSV)")
	only := flag.String("only", "", "run a single experiment id (table1, ledger, or e.g. fig09)")
	quiet := flag.Bool("quiet", false, "skip ASCII plots")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	ids := harness.IDs()
	if *only != "" {
		if !slices.Contains(ids, *only) {
			fmt.Fprintf(os.Stderr, "experiments: no experiment %q; valid ids: %s\n", *only, strings.Join(ids, " "))
			os.Exit(2)
		}
		ids = []string{*only}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			die(err)
		}
	}

	sess := harness.NewSession(harness.Runner{Scale: *scale})
	for _, id := range ids {
		a, err := sess.Render(id)
		if err != nil {
			die(err)
		}
		if a.Fig == nil {
			fmt.Printf("=== %s ===\n", a.Exp.Title)
			fmt.Print(a.Text)
		} else {
			fmt.Printf("=== %s: %s ===\n", a.Exp.ID, a.Exp.Title)
			fmt.Printf("query Q%d, %s, actual duration %.0f vsec, initial estimate %.0f U, exact cost %.0f U\n",
				a.Exp.Query, a.Run.Scenario, a.Run.ActualSeconds, a.Run.InitialEstU, a.Run.ExactCostU)
			if !*quiet {
				fmt.Print(a.Fig.ASCII(plotWidth, plotHeight))
			}
		}
		fmt.Println()
		if *outdir != "" {
			if err := os.WriteFile(filepath.Join(*outdir, a.File), []byte(a.Text), 0o644); err != nil {
				die(err)
			}
		}
	}
}
