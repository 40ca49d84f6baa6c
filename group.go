package progressdb

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"

	"progressdb/internal/exec"
)

// GroupQuery is one member of a concurrently executing query group.
type GroupQuery struct {
	// Name labels the query in progress reports.
	Name string
	// SQL is the query text.
	SQL string
	// StartAt delays the query's start by this many virtual seconds
	// after the group begins (0 = immediately), modeling queries that
	// arrive while others run.
	StartAt float64
	// KeepRows materializes the result rows (off by default: concurrent
	// groups are usually about timing, not data).
	KeepRows bool
	// OnProgress receives this query's indicator refreshes. Callbacks
	// may fire from any of the group's workers; do not assume goroutine
	// affinity.
	OnProgress func(Report)
	// Ctx, when non-nil, cancels this member at the executor's safe
	// points without disturbing the rest of the group: the member
	// unwinds, reports a canceled error in GroupError.Errs, and the
	// scheduler keeps interleaving the survivors.
	Ctx context.Context
}

// GroupError aggregates per-member failures of ExecGroup. Healthy
// members still complete and return results; each failed member's slot
// carries its own error (nil for members that succeeded).
type GroupError struct {
	// Errs has one entry per input query, aligned with the queries and
	// results slices; nil entries succeeded.
	Errs []error
}

// Error lists the failing members.
func (e *GroupError) Error() string {
	var parts []string
	for _, err := range e.Errs {
		if err != nil {
			parts = append(parts, err.Error())
		}
	}
	return "progressdb: group: " + strings.Join(parts, "; ")
}

// Unwrap returns the non-nil member errors so errors.Is/As traverse
// them (Go 1.20 multi-error unwrapping).
func (e *GroupError) Unwrap() []error {
	var errs []error
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// sliceTuples is how many tuples one query processes before yielding to
// the next — the scheduler's time slice.
const sliceTuples = 128

// groupWorker is one query's execution state within a group.
type groupWorker struct {
	q        GroupQuery
	token    chan struct{}
	finished bool
	err      error
	result   *Result
}

// ExecGroup runs several queries concurrently on this engine: a
// deterministic round-robin scheduler interleaves them tuple-slice by
// tuple-slice on the shared virtual clock, so they genuinely contend —
// each query's progress indicator observes a slowdown when another query
// runs, with no synthetic interference needed. This reproduces the
// paper's Section 6 load-management setting: a pool of running queries,
// each with its own indicator.
//
// Results are returned in input order. A member's failure (or
// cancellation through GroupQuery.Ctx) does not abort the group:
// healthy members run to completion and return results, and the error
// is a *GroupError whose Errs slice aligns with the input — the
// multi-tenant server semantics, where one tenant's bad query must not
// take down its neighbors. Failed members' result slots are nil.
func (db *DB) ExecGroup(queries []GroupQuery) ([]*Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	workers := make([]*groupWorker, len(queries))
	for i, q := range queries {
		workers[i] = &groupWorker{q: q, token: make(chan struct{}, 1)}
	}
	groupStart := db.clock.Now()
	done := make(chan int, len(queries))

	// next passes the token to the next unfinished worker after i;
	// called only while holding the token.
	next := func(i int) {
		for k := 1; k <= len(workers); k++ {
			w := workers[(i+k)%len(workers)]
			if !w.finished {
				w.token <- struct{}{}
				return
			}
		}
	}
	// earliestPendingStart finds when the next not-yet-started query is
	// due; the token holder idles the clock to it when nothing else can
	// run.
	earliestPendingStart := func() float64 {
		earliest := -1.0
		for _, w := range workers {
			if w.finished {
				continue
			}
			at := groupStart + w.q.StartAt
			if earliest < 0 || at < earliest {
				earliest = at
			}
		}
		return earliest
	}
	anyRunnableNow := func() bool {
		for _, w := range workers {
			if !w.finished && db.clock.Now() >= groupStart+w.q.StartAt {
				return true
			}
		}
		return false
	}

	for i, w := range workers {
		go func(i int, w *groupWorker) {
			defer func() { done <- i }()
			myStart := groupStart + w.q.StartAt

			// Gate on the start time: pass the token along while other
			// queries run; idle the clock when nothing else can.
			<-w.token
			for db.clock.Now() < myStart {
				if anyRunnableNow() {
					next(i)
					<-w.token
					continue
				}
				if at := earliestPendingStart(); at > db.clock.Now() {
					db.clock.Idle(at - db.clock.Now())
				}
			}

			steps := 0
			yield := func() {
				steps++
				if steps >= sliceTuples {
					steps = 0
					next(i)
					<-w.token
				}
			}
			w.result, w.err = db.execOne(w.q, yield)
			w.finished = true
			next(i)
		}(i, w)
	}
	workers[0].token <- struct{}{}

	for range workers {
		<-done
	}
	// The group ran on the engine's base clock; publish its end time into
	// the clock group so later queries start after it.
	db.clock.Sync()
	results := make([]*Result, len(workers))
	var ge *GroupError
	for i, w := range workers {
		if w.err != nil {
			if ge == nil {
				ge = &GroupError{Errs: make([]error, len(workers))}
			}
			ge.Errs[i] = fmt.Errorf("progressdb: group query %q: %w", w.q.Name, w.err)
			continue
		}
		results[i] = w.result
	}
	if ge != nil {
		return results, ge
	}
	return results, nil
}

// execOne plans one group member and runs it, like any other query,
// through db.run — on the engine's base clock, which all members
// charge, with the scheduler's yield hook. A member runs on a goroutine
// of its own, so a panic that db.run's boundary does not cover (the
// planner's) is converted here too rather than left to end the process.
func (db *DB) execOne(q GroupQuery, yield func()) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, exec.NewInternalError(r, debug.Stack())
		}
	}()
	p, err := db.plan(q.SQL)
	if err != nil {
		return nil, err
	}
	out, err := db.run(q.Ctx, db.clock, yield, p, q.Name, q.OnProgress, q.KeepRows, db.traceEnabled())
	if err != nil {
		return nil, err
	}
	return out.res, nil
}
