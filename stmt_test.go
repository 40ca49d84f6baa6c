package progressdb

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// opsOf lists a plan report's operator kinds, in pre-order.
func opsOf(r PlanReport) []string {
	var ops []string
	for _, op := range r.Operators {
		ops = append(ops, op.Op.String())
	}
	return ops
}

// estRowsOf lists a plan report's operator estimates, in pre-order.
func estRowsOf(r PlanReport) []float64 {
	var est []float64
	for _, op := range r.Operators {
		est = append(est, op.EstRows)
	}
	return est
}

// TestStmtStale: a Stmt prepared before a CreateIndex or an Analyze
// runs on the catalog it finds, not the one it was planned on — its run
// plans afresh, as a new Exec would.
func TestStmtStale(t *testing.T) {
	const sql = "select k, v from t where k = 42"
	pad := strings.Repeat("x", 100)
	open := func(rows int) *DB {
		db := Open(Config{})
		db.MustCreateTable("t", Col("k", Int), Col("v", Text))
		for i := range rows {
			db.MustInsert("t", i, pad)
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	run := func(st *Stmt) *Result {
		t.Helper()
		res, err := st.ExecContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := func(db *DB) *Result {
		t.Helper()
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("CreateIndex", func(t *testing.T) {
		db := open(2000)
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if ops := opsOf(run(st).Plan); slices.Contains(ops, "indexscan") {
			t.Fatalf("before the index: plan %v", ops)
		}
		if err := db.CreateIndex("t", "k"); err != nil {
			t.Fatal(err)
		}
		got, want := run(st), fresh(db)
		if ops := opsOf(got.Plan); !slices.Contains(ops, "indexscan") || !reflect.DeepEqual(ops, opsOf(want.Plan)) {
			t.Errorf("after CreateIndex the prepared statement ran plan %v, a fresh Exec %v", ops, opsOf(want.Plan))
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || len(got.Rows) != 1 {
			t.Errorf("rows %v, a fresh Exec's %v", got.Rows, want.Rows)
		}
	})

	t.Run("Analyze", func(t *testing.T) {
		db := open(10)
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		before := estRowsOf(run(st).Plan)
		for i := 10; i < 5000; i++ {
			db.MustInsert("t", i, pad)
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		got, want := run(st), fresh(db)
		if est := estRowsOf(got.Plan); !reflect.DeepEqual(est, estRowsOf(want.Plan)) || reflect.DeepEqual(est, before) {
			t.Errorf("after Analyze the prepared statement ran estimates %v; a fresh Exec's are %v, the stale plan's %v",
				est, estRowsOf(want.Plan), before)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || len(got.Rows) != 1 {
			t.Errorf("rows %v, a fresh Exec's %v", got.Rows, want.Rows)
		}
	})
}

// TestStmtConcurrent runs one Stmt from two goroutines at once, 50 times
// each: a run that finds the statement's counter block taken plans
// afresh, so every run returns what a run on its own does — the same
// rows and the same per-operator row counts.
func TestStmtConcurrent(t *testing.T) {
	db := loadObsWorkload(t, Config{})
	st, err := db.Prepare(`select c.name, o.orderkey from customer c, orders o
		where c.custkey = o.custkey and c.nationkey < 5`)
	if err != nil {
		t.Fatal(err)
	}
	opRows := func(r *Result) []int64 {
		var rows []int64
		for _, op := range r.Plan.Operators {
			rows = append(rows, op.Rows)
		}
		return rows
	}
	want, err := st.ExecContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("the query returns no rows")
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				got, err := st.ExecContext(context.Background(), nil)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(opRows(got), opRows(want)) {
					t.Errorf("goroutine %d run %d: %d rows, operator rows %v; alone: %d rows, %v",
						g, i, len(got.Rows), opRows(got), len(want.Rows), opRows(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
