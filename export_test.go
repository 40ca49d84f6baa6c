package progressdb

import (
	"context"
	"fmt"

	"progressdb/internal/expr"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
)

// CheckReports is checkReports for the external test package.
var CheckReports = checkReports

// Collecting returns cfg with the per-operator collector on for every
// query, so that each Result's plan report labels and notes its operators.
func Collecting(cfg Config) Config {
	cfg.collect = true
	return cfg
}

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
	res, err := db.run(context.Background(), db.workerClock(), nil, p, segment.Decompose(p, db.cfg.WorkMemPages), nil, true, db.cfg.collect)
	if err != nil {
		return nil, text, err
	}
	return res, text, nil
}

// ExecTopFilter runs the unoptimised twin of st AND pred, where the
// optimizer pushes pred into its table's scan: st's FROM and WHERE planned
// as SELECT *, pred in a Filter over that plan's root, and st's select
// list in a Project over the Filter. st is an SPJ or semi-join query with
// no ORDER BY or LIMIT.
func (db *DB) ExecTopFilter(st *sqlparser.SelectStmt, pred sqlparser.Comparison) (*Result, error) {
	star := *st
	star.Star, star.Items = true, nil
	root, err := optimizer.Plan(db.cat, &star, optimizer.Options{WorkMemPages: db.cfg.WorkMemPages})
	if err != nil {
		return nil, err
	}
	sch := root.Schema()
	col := func(c sqlparser.ColumnRef) (int, error) {
		i := sch.ColIndex(c.String())
		if i < 0 {
			i = sch.ColIndex(c.Column) // a one-table SELECT * names its columns bare
		}
		if i < 0 {
			return 0, fmt.Errorf("no column %s in %s", c, sch)
		}
		return i, nil
	}
	var bind func(e sqlparser.Expr) (expr.Expr, error)
	bind = func(e sqlparser.Expr) (expr.Expr, error) {
		switch n := e.(type) {
		case sqlparser.ColumnRef:
			i, err := col(n)
			return &expr.ColRef{Index: i, Name: n.String()}, err
		case sqlparser.IntLit:
			return &expr.Const{V: tuple.NewInt(n.V)}, nil
		case sqlparser.FloatLit:
			return &expr.Const{V: tuple.NewFloat(n.V)}, nil
		case sqlparser.StrLit:
			return &expr.Const{V: tuple.NewString(n.V)}, nil
		case sqlparser.FuncCall:
			arg, err := bind(n.Args[0])
			return expr.NewFunc(n.Name, []expr.Expr{arg}), err
		}
		return nil, fmt.Errorf("cannot bind %s", e)
	}
	l, err := bind(pred.L)
	if err != nil {
		return nil, err
	}
	r, err := bind(pred.R)
	if err != nil {
		return nil, err
	}
	ops := map[string]expr.CmpOp{"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE}
	var top plan.Node = &plan.Filter{Child: root, Pred: &expr.Cmp{Op: ops[pred.Op], L: l, R: r}, Sel: 1, OutEst: root.Est()}
	if !st.Star {
		p := &plan.Project{Child: top, Sch: &tuple.Schema{}, OutEst: root.Est()}
		for _, it := range st.Items {
			i, err := col(it.Col)
			if err != nil {
				return nil, err
			}
			p.Cols = append(p.Cols, i)
			p.Sch.Cols = append(p.Sch.Cols, tuple.Column{Name: it.String(), Type: sch.Cols[i].Type})
		}
		top = p
	}
	return db.run(context.Background(), db.workerClock(), nil, top, segment.Decompose(top, db.cfg.WorkMemPages), nil, true, db.cfg.collect)
}
