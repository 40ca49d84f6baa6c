package progressdb_test

import (
	"bytes"
	"fmt"
	"log"
	"sort"
	"strings"

	"progressdb"
)

// paperDB loads the paper's Table 1 workload at scale, with page costs
// that stretch virtual time to the full-scale durations.
func paperDB(scale float64, cfg progressdb.Config) *progressdb.DB {
	cfg.WorkMemPages = 16
	cfg.SeqPageCost = 0.8e-3 / scale
	cfg.RandPageCost = 6.4e-3 / scale
	db := progressdb.Open(cfg)
	if err := db.LoadPaperWorkload(scale, false); err != nil {
		log.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		log.Fatal(err)
	}
	return db
}

// Example creates two tables, collects statistics, and runs a join with
// a live progress indicator: every refresh prints the paper's Figure 2
// box.
func Example() {
	// A slow simulated disk stretches the join over a few refreshes of
	// virtual time; real execution takes milliseconds.
	db := progressdb.Open(progressdb.Config{SeqPageCost: 0.05, RandPageCost: 0.4, ProgressUpdateSeconds: 5})
	db.MustCreateTable("users",
		progressdb.Col("id", progressdb.Int),
		progressdb.Col("name", progressdb.Text),
		progressdb.Col("country", progressdb.Int))
	db.MustCreateTable("events",
		progressdb.Col("user_id", progressdb.Int),
		progressdb.Col("kind", progressdb.Text),
		progressdb.Col("payload", progressdb.Text))
	payload := strings.Repeat("x", 120)
	for i := 0; i < 1000; i++ {
		db.MustInsert("users", int64(i), fmt.Sprintf("user-%04d", i), int64(i%30))
	}
	for i := 0; i < 20000; i++ {
		db.MustInsert("events", int64(i%1000), "click", payload)
	}
	if err := db.Analyze(); err != nil {
		log.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		log.Fatal(err)
	}

	res, err := db.ExecDiscard(`select u.name, e.kind from users u, events e
		where u.id = e.user_id and u.country < 10`, func(r progressdb.Report) {
		fmt.Print("--\n", progressdb.FormatReport("join", r))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished in %.1f virtual seconds, %d refreshes\n", res.VirtualSeconds, len(res.History))
	// Output:
	// --
	// SQL name         join
	// Elapsed time     5 sec
	// Estimated time left  16 sec (23% done)
	// Estimated cost   357 U
	// Execution speed  17 U/Sec
	// --
	// SQL name         join
	// Elapsed time     10 sec
	// Estimated time left  10 sec (51% done)
	// Estimated cost   357 U
	// Execution speed  18 U/Sec
	// --
	// SQL name         join
	// Elapsed time     15 sec
	// Estimated time left  4 sec (78% done)
	// Estimated cost   357 U
	// Execution speed  19 U/Sec
	// --
	// SQL name         join
	// Elapsed time     19 sec
	// Estimated time left  0 sec (100% done)
	// Estimated cost   357 U
	// Execution speed  19 U/Sec
	// finished in 19.1 virtual seconds, 4 refreshes
}

// ExampleDB_SetInterference replays the paper's interference tests: a
// 4x I/O load under Q2 (Section 5.3.2) and a 4x CPU load under the
// CPU-bound Q5 (Section 5.6.2), each starting part-way through the query.
// The speed monitor sees the slowdown within one window and the
// remaining-time estimate follows. The same callback carries a Section 6
// trigger, an alert fired once when the query has run as long as its
// whole estimated duration before the load yet is under 75% done, and
// Result.History gives the post-mortem.
func ExampleDB_SetInterference() {
	db := paperDB(0.002, progressdb.Config{})
	run := func(query int, kind string, onset float64) {
		sql, err := progressdb.PaperQuery(query)
		if err != nil {
			log.Fatal(err)
		}
		at := db.Now() + onset
		if err := db.SetInterference(kind, at, at+1e6, 4); err != nil {
			log.Fatal(err)
		}
		defer db.ClearInterference()

		fmt.Printf("Q%d, %s load from %.0f s:\n", query, kind, onset)
		predicted, fired := 0.0, false
		res, err := db.ExecDiscard(sql, func(r progressdb.Report) {
			if r.ElapsedSeconds <= onset { // the report at the onset predates the load
				predicted = r.ElapsedSeconds + r.RemainingSeconds
			}
			if r.ElapsedSeconds > onset-10 && r.ElapsedSeconds <= onset+20 {
				fmt.Printf("  t=%4.0fs %5.1f%% done %4.0f s left %5.1f U/s\n",
					r.ElapsedSeconds, r.Percent, r.RemainingSeconds, r.SpeedU)
			}
			if !fired && r.ElapsedSeconds >= predicted && r.Percent < 75 {
				fired = true
				fmt.Printf("  ALERT at %.0f s: only %.1f%% done, %.0f s left\n",
					r.ElapsedSeconds, r.Percent, r.RemainingSeconds)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  took %.0f s, %.0f s estimated before the load\n  history:", res.VirtualSeconds, predicted)
		next := 25.0
		for _, r := range res.History {
			if r.Percent >= next {
				fmt.Printf(" %.0f%% at %.0f s;", r.Percent, r.ElapsedSeconds)
				next = r.Percent + 25
			}
		}
		fmt.Println()
		if err := db.ColdRestart(); err != nil {
			log.Fatal(err)
		}
	}
	// The paper's file copy starts 37% into Q2's unloaded run, its CPU
	// hog 120 s into Q5's.
	run(2, "io", 35)
	run(5, "cpu", 120)
	// Output:
	// Q2, io load from 35 s:
	//   t=  30s  33.4% done   80 s left   1.9 U/s
	//   t=  40s  40.1% done   89 s left   1.6 U/s
	//   t=  50s  42.6% done  229 s left   0.6 U/s
	//   ALERT at 110 s: only 58.5% done, 142 s left
	//   took 270 s, 110 s estimated before the load
	//   history: 25% at 20 s; 51% at 80 s; 77% at 180 s;
	// Q5, cpu load from 120 s:
	//   t= 120s  38.5% done  144 s left 689.3 U/s
	//   t= 130s  39.6% done  549 s left 177.7 U/s
	//   t= 140s  40.8% done  507 s left 188.5 U/s
	//   ALERT at 270 s: only 55.5% done, 393 s left
	//   took 665 s, 264 s estimated before the load
	//   history: 26% at 90 s; 52% at 240 s; 78% at 470 s;
}

// ExampleDB_ExecGroup is the paper's Section 6 load management: three of
// its queries run concurrently on one virtual clock, and a DBA ranks
// them by the remaining time each one's indicator reported half-way
// through its run. The longest is the candidate to block.
func ExampleDB_ExecGroup() {
	// A small pool, so the concurrent scans contend for cache space too.
	db := paperDB(0.005, progressdb.Config{BufferPoolPages: 128})
	var group []progressdb.GroupQuery
	for i, q := range []int{1, 2, 4} {
		sql, err := progressdb.PaperQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		group = append(group, progressdb.GroupQuery{
			Name: fmt.Sprintf("Q%d", q), SQL: sql,
			StartAt: float64(i) * 20, // arrivals 20 s apart
		})
	}
	results, err := db.ExecGroup(group)
	if err != nil {
		log.Fatal(err)
	}

	type midway struct {
		name string
		rep  progressdb.Report
	}
	var view []midway
	for i, res := range results {
		fmt.Printf("%s ran %.0f virtual seconds\n", group[i].Name, res.VirtualSeconds)
		for _, r := range res.History {
			if r.ElapsedSeconds >= res.VirtualSeconds/2 {
				view = append(view, midway{group[i].Name, r})
				break
			}
		}
	}
	sort.Slice(view, func(i, j int) bool { return view[i].rep.RemainingSeconds > view[j].rep.RemainingSeconds })
	for _, m := range view {
		fmt.Printf("%s at half-way: %4.1f%% done, %4.0f s left\n", m.name, m.rep.Percent, m.rep.RemainingSeconds)
	}
	fmt.Println("block", view[0].name)
	// Output:
	// Q1 ran 523 virtual seconds
	// Q2 ran 641 virtual seconds
	// Q4 ran 609 virtual seconds
	// Q4 at half-way: 36.8% done,  789 s left
	// Q2 at half-way: 39.5% done,  715 s left
	// Q1 at half-way: 75.5% done,  213 s left
	// block Q4
}

// ExampleDB_ExplainAnalyze is the paper's Section 6 performance tuning,
// on a query of the wider class its future work names: GROUP BY, ORDER
// BY and LIMIT add blocking segments (HashAggregate, Sort, Limit) that
// the indicator covers like any join. The annotated plan and the
// per-segment table show where the estimates and the time went; the
// metrics registry and the JSONL event log record the same run.
func ExampleDB_ExplainAnalyze() {
	var events bytes.Buffer
	db := paperDB(0.002, progressdb.Config{Metrics: true, TraceSink: &events})
	res, tree, err := db.ExplainAnalyze(`select c.nationkey, count(*), sum(o.totalprice)
		from customer c, orders o where c.custkey = o.custkey
		group by c.nationkey order by c.nationkey limit 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)
	for _, row := range res.Rows {
		fmt.Printf("nation %d: %d orders, %.2f\n", row[0], row[1], row[2])
	}
	for _, line := range strings.Split(db.MetricsText(), "\n") {
		if strings.HasPrefix(line, "engine_queries_total") || strings.HasPrefix(line, "bufferpool_misses_total") {
			fmt.Println(line)
		}
	}
	fmt.Printf("event log: %d progress, %d segment_done; %d trace spans\n",
		strings.Count(events.String(), `"type":"progress"`),
		strings.Count(events.String(), `"type":"segment_done"`), res.Trace.SpanCount())
	// Output:
	// Limit 3  (est rows=3 width=27) (actual rows=3 loops=1 U=0.0 time=144.0..162.9s err=x1.0) [S3]
	//   Sort (c.nationkey)  (est rows=25 width=27) (actual rows=3 loops=1 U=0.0 time=144.0..162.9s err=x8.3) [S2]
	//     HashAggregate (c.nationkey, count(*), sum(o.totalprice))  (est rows=25 width=27) (actual rows=25 loops=1 U=0.1 time=144.0..162.9s err=x1.0) [S1]
	//       note: int keys: direct window
	//       Project (c.nationkey, o.totalprice)  (est rows=3000 width=18) (actual rows=3000 loops=1 U=6.6 time=144.0..162.9s err=x1.0) [S1]
	//         HashJoin (build.c.custkey = probe.o.custkey)  (est rows=3000 width=36) (actual rows=3000 loops=1 U=13.2 time=144.0..162.9s err=x1.0) [S1]
	//           note: int keys: direct window
	//           Project (c.custkey, c.nationkey)  (est rows=300 width=18) (actual rows=300 loops=1 U=0.7 time=144.0..149.2s err=x1.0) [S0]
	//             SeqScan customer c  (est rows=300 width=147) (actual rows=300 loops=1 U=5.4 time=144.0..149.2s err=x1.0) [S0]
	//           Project (o.custkey, o.totalprice)  (est rows=3000 width=18) (actual rows=3000 loops=1 U=6.6 time=149.2..162.9s err=x1.0) [S1]
	//             SeqScan orders o  (est rows=3000 width=69) (actual rows=3000 loops=1 U=25.3 time=149.2..162.9s err=x1.0) [S1]
	//
	// seg est U       actual U    est rows     actual rows  seconds   root
	// 0   6           6           300          300          2.0       Project (c.custkey, c.nationkey)
	// 1   26          26          25           25           13.6      HashAggregate (c.nationkey, count(*), sum(o.totalprice))
	// 2   0           0           25           25           0.0       Sort (c.nationkey)
	// 3   0           0           3            (result)     0.0       Limit 3
	// nation 0: 120 orders, 31465800.86
	// nation 1: 120 orders, 33405336.75
	// nation 2: 120 orders, 29618605.09
	// bufferpool_misses_total 33
	// engine_queries_total 1
	// event log: 2 progress, 4 segment_done; 14 trace spans
}
