package progressdb

import (
	"context"

	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/sqlparser"
)

// CheckReports is checkReports for the external test package.
var CheckReports = checkReports

// ExecPlan plans sql under opt on the DB's catalog, at the DB's own
// work_mem, and returns the plan.Format text. If run accepts that text,
// the plan executes on DB.Exec's path — panic boundary, indicator,
// cleanup — and its Result is returned too; otherwise the Result is nil.
func (db *DB) ExecPlan(sql string, opt optimizer.Options, run func(planText string) bool) (*Result, string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, "", err
	}
	opt.WorkMemPages = db.cfg.WorkMemPages
	p, err := optimizer.Plan(db.cat, stmt, opt)
	if err != nil {
		return nil, "", err
	}
	text := plan.Format(p)
	if !run(text) {
		return nil, text, nil
	}
	out, err := db.run(context.Background(), db.workerClock(), nil, p, sql, nil, true, db.traceEnabled())
	if err != nil {
		return nil, text, err
	}
	return out.res, text, nil
}
