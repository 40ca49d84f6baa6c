package progressdb

import (
	"context"
	"sync/atomic"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
)

// Stmt is a prepared statement: DB.Prepare parsed, bound, optimized and
// decomposed it once. CostU is the optimizer's initial estimate of the
// plan, and ExecContext and ExecDiscardContext run that same plan
// without planning it again — so an admission controller charges the
// estimate of the plan that runs.
//
// A Stmt is never run against a catalog it was not planned on: once a
// CreateTable, CreateIndex or Analyze has run since Prepare, each run
// plans the statement afresh from its SQL. A Stmt is safe for
// concurrent use. Its plan keeps its query's counters (the counter
// block, internal/segment/counts.go), which one run at a time may use;
// a run that finds them in use plans afresh the same way.
type Stmt struct {
	db    *DB
	sql   string
	gen   uint64 // the catalog generation p was planned at
	p     plan.Node
	d     *segment.Decomposition
	costU float64
	// busy is held by the run that counts in d's counter block.
	busy atomic.Bool
}

// Prepare compiles sql — parse, bind, optimize, decompose — into a
// statement that runs without planning again. Planning is a pure read
// of the catalog and statistics: it charges nothing to the virtual
// clock and touches no storage, so it is safe to call concurrently with
// running queries on the same DB, but not with DDL, inserts or Analyze
// (like every other DB call).
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st := new(Stmt)
	if err := db.prepare(st, sql); err != nil {
		return nil, err
	}
	return st, nil
}

// prepare plans sql into st, which its caller owns.
func (db *DB) prepare(st *Stmt, sql string) error {
	gen := db.cat.Generation()
	p, err := db.plan(sql)
	if err != nil {
		return err
	}
	d := segment.Decompose(p, db.cfg.WorkMemPages)
	st.db, st.sql, st.gen, st.p, st.d = db, sql, gen, p, d
	st.costU = d.TotalInitCost() / storage.PageSize
	return nil
}

// CostU returns the optimizer's initial total cost estimate of the
// statement's plan in U (pages): the figure the progress indicator
// starts from before any refinement.
func (s *Stmt) CostU() float64 { return s.costU }

// ExecContext runs the statement as DB.ExecContext runs its SQL.
func (s *Stmt) ExecContext(ctx context.Context, onProgress func(Report)) (*Result, error) {
	return s.exec(ctx, onProgress, true)
}

// ExecDiscardContext runs the statement as DB.ExecDiscardContext runs
// its SQL.
func (s *Stmt) ExecDiscardContext(ctx context.Context, onProgress func(Report)) (*Result, error) {
	return s.exec(ctx, onProgress, false)
}

// exec runs s's plan, or a fresh plan of its SQL when the catalog has
// changed since s was planned or another run holds s's counter block.
func (s *Stmt) exec(ctx context.Context, onProgress func(Report), keepRows bool) (*Result, error) {
	db := s.db
	if s.gen == db.cat.Generation() && s.busy.CompareAndSwap(false, true) {
		defer s.busy.Store(false)
	} else {
		fresh := new(Stmt)
		if err := db.prepare(fresh, s.sql); err != nil {
			return nil, err
		}
		s = fresh
	}
	return db.run(ctx, db.workerClock(), nil, s.p, s.d, onProgress, keepRows, db.cfg.collect)
}
