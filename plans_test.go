package progressdb_test

import (
	"fmt"
	"strings"
	"testing"

	"progressdb"
	"progressdb/internal/harness"
	"progressdb/internal/optimizer"
)

// TestPlansGolden pins the plan golden, testdata/plans.txt: Q1–Q5's plan
// trees and segment decompositions, every initial cost, under the
// cost-based choice and each forced join algorithm, at the harness's
// work_mem of 16 pages and at 4, on DBs opened as the figures' are. An
// optimizer or cost-module change that must not move plan choice or any
// segment's initial cost leaves it byte-identical.
func TestPlansGolden(t *testing.T) {
	t.Parallel()
	type at struct {
		correlated bool // Q3's orders
		workMem    int
	}
	dbs := map[at]*progressdb.DB{}
	var b strings.Builder
	for q := 1; q <= 5; q++ {
		sql, err := progressdb.PaperQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, wm := range []int{16, 4} {
			key := at{q == 3, wm}
			db := dbs[key]
			if db == nil {
				if db, err = (harness.Runner{Scale: 0.02, WorkMemPages: wm}).OpenDB(q == 3); err != nil {
					t.Fatal(err)
				}
				dbs[key] = db
			}
			for _, algo := range []string{"", "hash", "nl", "merge"} {
				_, text, err := db.ExecPlan(sql, optimizer.Options{ForceJoinAlgo: algo}, func(string) bool { return false })
				if err != nil {
					t.Fatalf("planning Q%d (work_mem %d, force %q): %v", q, wm, algo, err)
				}
				fmt.Fprintf(&b, "== Q%d work_mem=%d force=%q ==\n%s\n", q, wm, algo, text)
			}
		}
	}
	progressdb.CheckGolden(t, "testdata/plans.txt", b.String())
}
