package progressdb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"progressdb/internal/exec"
)

// cancelDB builds an I/O-bound table big enough that a scan spans many
// progress refreshes.
func cancelDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{
		ProgressUpdateSeconds: 0.5,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.01,
		RandPageCost:          0.08,
		BufferPoolPages:       64,
	})
	db.MustCreateTable("big", Col("k", Int), Col("pad", Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("big", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecContextCancelMidQuery(t *testing.T) {
	db := cancelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reports := 0
	_, err := db.ExecContext(ctx, "select * from big", func(r Report) {
		reports++
		if reports == 2 {
			cancel() // pull the plug mid-segment
		}
	})
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	var ce *exec.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *exec.CanceledError", err, err)
	}
	if reports < 2 {
		t.Fatalf("only %d progress reports before cancel", reports)
	}

	// The engine must stay usable after the unwind.
	res, err := db.Exec("select * from big where k < 10", nil)
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if res.RowCount() != 10 {
		t.Fatalf("rows after cancel = %d", res.RowCount())
	}
}

func TestExecContextPreCanceled(t *testing.T) {
	db := cancelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "select * from big", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecContextUncanceledCompletes(t *testing.T) {
	db := cancelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.ExecContext(ctx, "select * from big where k < 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 100 {
		t.Fatalf("rows = %d", res.RowCount())
	}
	// Background contexts never even install the check.
	if _, err := db.ExecContext(context.Background(), "select * from big where k < 5", nil); err != nil {
		t.Fatal(err)
	}
}

// spillDB is cancelDB with a tiny work_mem so sorts and hash joins
// spill to temp files, plus a second join table.
func spillDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{
		ProgressUpdateSeconds: 0.2,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.01,
		RandPageCost:          0.08,
		BufferPoolPages:       64,
		WorkMemPages:          2,
	})
	pad := strings.Repeat("x", 100)
	for _, tbl := range []string{"big", "big2"} {
		db.MustCreateTable(tbl, Col("k", Int), Col("pad", Text))
		for i := 0; i < 12000; i++ {
			db.MustInsert(tbl, int64(i), pad)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return db
}

// testCancelMidSpill cancels sql mid-execution (while its spilling
// operators hold temp files on disk), then asserts the unwind released
// every temp file and buffer page and left the engine reusable.
func testCancelMidSpill(t *testing.T, sql string) {
	t.Helper()
	db := spillDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reports := 0
	_, err := db.ExecDiscardContext(ctx, sql, func(r Report) {
		reports++
		if reports == 2 {
			cancel() // mid-run: spilled runs/partitions are live on disk
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after cancel: %v", err)
	}

	// The engine must stay usable, and a full run of the same spilling
	// query must also clean up after itself.
	if _, err := db.ExecDiscard(sql, nil); err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after completed rerun: %v", err)
	}
}

func TestCancelMidExternalSort(t *testing.T) {
	testCancelMidSpill(t, "select * from big order by pad desc, k desc")
}

func TestCancelMidSpilledHashJoin(t *testing.T) {
	testCancelMidSpill(t, "select * from big b1, big2 b2 where b1.k = b2.k and b2.k < 4000")
}

// TestCancelMidSpilledHashJoinNoMatch cancels a hybrid hash join while it
// re-reads a spilled probe batch none of whose rows match: that loop
// returns to no caller and pumps no child, so only its own safe point
// hears the cancel (without one the query ran to completion, err == nil).
func TestCancelMidSpilledHashJoinNoMatch(t *testing.T) {
	db := Open(Config{
		ProgressUpdateSeconds: 0.2,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.01,
		RandPageCost:          0.08,
		BufferPoolPages:       64,
		WorkMemPages:          16,
	})
	pad := strings.Repeat("x", 100)
	// absolute(k) > 0 is estimated at 1/3: the build side is planned
	// in-memory (hybrid, not Grace) and really is three times work_mem.
	// The probe keys are disjoint from the build's.
	for _, tbl := range []struct {
		name     string
		rows, k0 int
	}{{"small", 3000, 1}, {"far", 30000, 1_000_000}} {
		db.MustCreateTable(tbl.name, Col("k", Int), Col("pad", Text))
		for i := 0; i < tbl.rows; i++ {
			db.MustInsert(tbl.name, int64(tbl.k0+i), pad)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	const sql = "select * from small s, far f where s.k = f.k and absolute(s.k) > 0"
	if pl, err := db.Explain(sql); err != nil || !strings.Contains(pl, "HashJoin") || strings.Contains(pl, "GraceHashJoin") {
		t.Fatalf("want a hybrid hash join (err %v):\n%s", err, pl)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tail := 0
	_, err := db.ExecDiscardContext(ctx, sql, func(r Report) {
		// p = 1 on the last segment: the probe scan is read to its end
		// and what remains is the spilled batches — a fifth of a second
		// reloading the build batch (loadBatch has its own safe point),
		// then three re-reading the probe batch. Cancel one second in.
		if r.CurrentP >= 1 && r.SegmentsDone == 1 && !r.Finished {
			if tail++; tail == 5 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

func TestCancelMidSortedJoin(t *testing.T) {
	// Sort feeding a join: cancel while multiple operators hold spills.
	testCancelMidSpill(t, "select * from big b1, big2 b2 where b1.k = b2.k order by b1.pad desc, b2.k")
}

func TestExecGroupMemberCancel(t *testing.T) {
	db := cancelDB(t)
	db.MustCreateTable("big2", Col("k", Int), Col("pad", Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("big2", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports := 0
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "survivor", SQL: "select * from big where k < 500", KeepRows: true},
		{Name: "victim", SQL: "select * from big2", Ctx: ctx, OnProgress: func(r Report) {
			reports++
			if reports == 2 {
				cancel()
			}
		}},
	})
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %T %v, want *GroupError", err, err)
	}
	if ge.Errs[0] != nil {
		t.Fatalf("survivor errored: %v", ge.Errs[0])
	}
	if !errors.Is(ge.Errs[1], context.Canceled) {
		t.Fatalf("victim err = %v, want context.Canceled", ge.Errs[1])
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("group err should unwrap to context.Canceled, got %v", err)
	}
	if results[0] == nil || results[0].RowCount() != 500 {
		t.Fatalf("survivor result = %+v, want 500 rows", results[0])
	}
	if results[1] != nil {
		t.Fatal("victim should have a nil result slot")
	}
}
