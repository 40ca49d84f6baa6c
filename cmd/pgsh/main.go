// Command pgsh is a small shell over the engine: type SPJ SQL and watch
// the progress indicator — the text form of the paper's Figure 2
// interface, one box per refresh — while it runs.
//
//	$ go run ./cmd/pgsh -scale 0.01
//	pgsh> \tables
//	pgsh> explain select * from lineitem
//	pgsh> select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey
//	pgsh> \paper 2
//
// It reads commands from stdin, so a one-shot run is a pipe:
//
//	$ printf '%s\n' '\io 190 885 4' '\paper 2' | go run ./cmd/pgsh -scale 0.02
//
// Commands: \tables, \paper <1-5> (run the paper's query Qn cold,
// discarding its rows), \metrics (engine metrics snapshot), \cold (empty
// the buffer pool), \io <start> <end> <factor> / \cpu ... / \clear
// (interference), \help, \q. SQL statements may be prefixed with EXPLAIN
// or EXPLAIN ANALYZE.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"progressdb"
)

func main() {
	scale := flag.Float64("scale", 0.01, "paper workload scale (0 = start empty)")
	workMem := flag.Int("workmem", 16, "work_mem in pages")
	update := flag.Float64("update", 10, "progress refresh in virtual seconds")
	maxRows := flag.Int("rows", 10, "result rows to print")
	flag.Parse()

	db := progressdb.Open(progressdb.Config{
		WorkMemPages:          *workMem,
		ProgressUpdateSeconds: *update,
		// Calibrate virtual time to full-scale durations (see DESIGN.md).
		SeqPageCost:  0.8e-3 / max(*scale, 0.01),
		RandPageCost: 6.4e-3 / max(*scale, 0.01),
		Metrics:      true,
	})
	if *scale > 0 {
		fmt.Printf("loading paper workload at scale %g ...\n", *scale)
		if err := db.LoadPaperWorkload(*scale, false); err != nil {
			fmt.Fprintln(os.Stderr, "pgsh:", err)
			os.Exit(1)
		}
	}
	fmt.Println(`type SPJ SQL, or \help`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("pgsh> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\q` || line == `\quit`:
			return
		case line == `\help`:
			fmt.Println(`\tables            list tables
\paper <1-5>       run the paper's query Qn on a cold buffer pool, rows discarded
\metrics           engine metrics snapshot (Prometheus text format)
\cold              empty the buffer pool
\io <s> <e> <f>    I/O interference from s to e (virtual sec from now), factor f
\cpu <s> <e> <f>   CPU interference
\clear             remove interference
\q                 quit
explain [analyze] <sql>   plan and segments only, or run + annotated plan with
                   per-segment estimated vs actual
anything else      run as SQL with a live progress indicator`)
		case line == `\tables`:
			for _, q := range []string{"customer", "orders", "lineitem", "customer_subset1", "customer_subset2"} {
				if _, err := db.Explain("select * from " + q); err == nil {
					fmt.Println(" ", q)
				}
			}
		case line == `\metrics`:
			fmt.Print(db.MetricsText())
		case line == `\cold`:
			if err := db.ColdRestart(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("buffer pool cleared")
			}
		case line == `\clear`:
			db.ClearInterference()
			fmt.Println("interference cleared")
		case strings.HasPrefix(line, `\io `) || strings.HasPrefix(line, `\cpu `):
			kind := "io"
			rest := strings.TrimPrefix(line, `\io `)
			if strings.HasPrefix(line, `\cpu `) {
				kind = "cpu"
				rest = strings.TrimPrefix(line, `\cpu `)
			}
			parts := strings.Fields(rest)
			if len(parts) != 3 {
				fmt.Println("usage: \\" + kind + " <start> <end> <factor>")
				continue
			}
			s, err1 := strconv.ParseFloat(parts[0], 64)
			e, err2 := strconv.ParseFloat(parts[1], 64)
			f, err3 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				fmt.Println("bad numbers")
				continue
			}
			if err := db.SetInterference(kind, db.Now()+s, db.Now()+e, f); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s x%g over [now+%g, now+%g]\n", kind, f, s, e)
			}
		case strings.HasPrefix(line, `\paper `):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, `\paper `)))
			if err != nil {
				fmt.Println(`usage: \paper <1-5>`)
				continue
			}
			sql, err := progressdb.PaperQuery(n)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			// On one line, so it can be pasted back behind "explain".
			fmt.Printf("SQL: %s\n", strings.Join(strings.Fields(sql), " "))
			if err := db.ColdRestart(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			runSQL(db, fmt.Sprintf("Query %d", n), sql, 0)
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown command; try \\help")
		case hasKeywordPrefix(line, "explain", "analyze"):
			res, tree, err := db.ExplainAnalyze(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(tree)
			fmt.Printf("(%.1f virtual seconds)\n", res.VirtualSeconds)
		case hasKeywordPrefix(line, "explain"):
			out, err := db.Explain(strings.TrimSpace(line[len("explain"):]))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		default:
			runSQL(db, "Query", line, *maxRows)
		}
	}
}

// runSQL executes sql, printing the Figure 2 box at every refresh, then
// the first maxRows result rows; with maxRows 0 (what \paper passes)
// there is nothing to print, so no row is materialized either.
func runSQL(db *progressdb.DB, name, sql string, maxRows int) {
	exec := db.Exec
	if maxRows == 0 {
		exec = db.ExecDiscard
	}
	res, err := exec(sql, func(r progressdb.Report) {
		fmt.Println("----------------------------------------")
		fmt.Print(progressdb.FormatReport(name, r))
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("========================================")
	if maxRows > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for i, row := range res.Rows {
			if i >= maxRows {
				fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
				break
			}
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("%d rows, ", res.RowCount())
	}
	fmt.Printf("%d progress refreshes over %.1f virtual seconds\n", len(res.History), res.VirtualSeconds)
}

// hasKeywordPrefix reports whether line starts with the given keywords,
// case-insensitively and whitespace-separated.
func hasKeywordPrefix(line string, kws ...string) bool {
	fields := strings.Fields(line)
	if len(fields) <= len(kws) {
		return false
	}
	for i, kw := range kws {
		if !strings.EqualFold(fields[i], kw) {
			return false
		}
	}
	return true
}
