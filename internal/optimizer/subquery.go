package optimizer

import (
	"fmt"
	"math"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/stats"
	"progressdb/internal/tuple"
)

// corrPred is one correlation predicate of a subquery: a comparison
// between a subquery column and an outer-query column. Indexes are in
// the combined global space (outer columns first, then subquery
// columns).
type corrPred struct {
	op       expr.CmpOp
	outerCol int
	subCol   int
}

// subquerySpec is one bound EXISTS/IN subquery.
type subquerySpec struct {
	anti bool
	// sub is the subquery's own bound query; its tables live in the
	// combined global space at offsets past the outer query's columns.
	sub *boundQuery
	// corr are the correlation predicates (at least one equality is
	// required for the hash semi-join path; others become extra
	// predicates; a subquery with none is uncorrelated — IN provides the
	// equality instead).
	corr []corrPred
	// neededSubCols are the subquery output columns the semi-join needs
	// (correlation columns plus the IN key), in a fixed order.
	neededSubCols []int
}

// bindSubquery binds one EXISTS/IN subquery against the outer query.
// inCol is the outer IN column (-1 for EXISTS).
func bindSubquery(cat *catalog.Catalog, outer *boundQuery, stmt *sqlparser.SelectStmt, anti bool, inCol int) (*subquerySpec, error) {
	if len(stmt.GroupBy) > 0 || len(stmt.OrderBy) > 0 || stmt.Limit != nil {
		return nil, fmt.Errorf("optimizer: subqueries do not support GROUP BY, ORDER BY, or LIMIT")
	}
	for _, it := range stmt.Items {
		if it.Agg != "" {
			return nil, fmt.Errorf("optimizer: aggregates in subqueries are not supported")
		}
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("optimizer: subquery needs a FROM clause")
	}

	spec := &subquerySpec{anti: anti}
	outerArity := outer.global.Arity()

	// Build the subquery's bound query in the combined column space:
	// outer columns occupy [0, outerArity); subquery columns follow.
	sub := &boundQuery{global: &tuple.Schema{Cols: outer.global.Cols}}
	if err := sub.bindFrom(cat, stmt.From, outerArity); err != nil {
		return nil, err
	}
	spec.sub = sub

	// resolve finds a column: subquery tables first, then the outer
	// query's (a correlated reference).
	resolve := func(ref sqlparser.ColumnRef) (int, bool, error) {
		if g, _, err := sub.resolveColumn(ref); err == nil {
			return g, false, nil
		}
		g, _, err := outer.resolveColumn(ref)
		if err != nil {
			return 0, false, fmt.Errorf("optimizer: subquery column %s not found in subquery or outer query", ref)
		}
		return g, true, nil
	}

	// The IN key: the subquery's single select item.
	if inCol >= 0 {
		if stmt.Star || len(stmt.Items) != 1 {
			return nil, fmt.Errorf("optimizer: an IN subquery must select exactly one column")
		}
		g, isOuter, err := resolve(stmt.Items[0].Col)
		if err != nil {
			return nil, err
		}
		if isOuter {
			return nil, fmt.Errorf("optimizer: the IN subquery's select column must come from the subquery")
		}
		spec.corr = append(spec.corr, corrPred{op: expr.EQ, outerCol: inCol, subCol: g})
	}

	// Classify the subquery's WHERE conjuncts.
	if stmt.Where != nil {
		for _, t := range splitAnd(stmt.Where) {
			switch t.(type) {
			case sqlparser.ExistsExpr, sqlparser.InExpr:
				return nil, fmt.Errorf("optimizer: nested subqueries are not supported")
			}
			cp, isCorr, err := classifyCorr(t, sub, outer, resolve, outerArity)
			if err != nil {
				return nil, err
			}
			if isCorr {
				spec.corr = append(spec.corr, cp)
				continue
			}
			e, mask, err := sub.bindExpr(t)
			if err != nil {
				return nil, err
			}
			sub.conjuncts = append(sub.conjuncts, &conjunct{e: e, tables: mask})
		}
	}

	if len(spec.corr) == 0 && inCol < 0 {
		// An uncorrelated EXISTS is constant per query; without a
		// correlation there is nothing for the semi-join to match on.
		return nil, fmt.Errorf("optimizer: EXISTS subquery must be correlated with the outer query")
	}

	// Subquery output columns the semi-join must see.
	need := map[int]bool{}
	for _, c := range spec.corr {
		if !need[c.subCol] {
			need[c.subCol] = true
			spec.neededSubCols = append(spec.neededSubCols, c.subCol)
		}
	}
	sub.selectCols = spec.neededSubCols
	return spec, nil
}

// classifyCorr reports whether conjunct t is a correlation predicate
// (one side a subquery column, the other an outer column), returning it
// normalized with the outer column first.
func classifyCorr(t sqlparser.Expr, sub, outer *boundQuery,
	resolve func(sqlparser.ColumnRef) (int, bool, error), outerArity int) (corrPred, bool, error) {
	cmp, ok := t.(sqlparser.Comparison)
	if !ok {
		return corrPred{}, false, nil
	}
	lc, lok := cmp.L.(sqlparser.ColumnRef)
	rc, rok := cmp.R.(sqlparser.ColumnRef)
	if !lok || !rok {
		return corrPred{}, false, nil
	}
	lg, lOuter, lerr := resolve(lc)
	rg, rOuter, rerr := resolve(rc)
	if lerr != nil || rerr != nil {
		// Let bindExpr produce the error with full context.
		return corrPred{}, false, nil
	}
	if lOuter == rOuter {
		if lOuter {
			return corrPred{}, false, fmt.Errorf(
				"optimizer: subquery predicate %s references only outer columns", cmp)
		}
		return corrPred{}, false, nil // pure subquery predicate
	}
	op, err := cmpOp(cmp.Op)
	if err != nil {
		return corrPred{}, false, err
	}
	if lOuter {
		return corrPred{op: op, outerCol: lg, subCol: rg}, true, nil
	}
	// Flip so the outer column is on the left.
	return corrPred{op: flipCmp(op), outerCol: rg, subCol: lg}, true, nil
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op
	}
}

// applySemiJoin plans one subquery and attaches it as a semi-join over
// the outer entry.
func (p *planner) applySemiJoin(outer dpEntry, spec *subquerySpec) (dpEntry, error) {
	pi := &planner{bq: spec.sub, opt: p.opt, priced: p.priced}
	innerBest, err := pi.joinDP()
	if err != nil {
		return dpEntry{}, fmt.Errorf("optimizer: planning subquery: %w", err)
	}
	inner, err := pi.projectTo(innerBest, spec.neededSubCols)
	if err != nil {
		return dpEntry{}, err
	}

	// Pick the first equality correlation as the hash key.
	outerKey, innerKey := -1, -1
	var extras []expr.Expr
	outerArity := len(outer.cols)
	usedHash := false
	for _, c := range spec.corr {
		opos := outer.posOf(c.outerCol)
		ipos := inner.posOf(c.subCol)
		if opos < 0 || ipos < 0 {
			return dpEntry{}, fmt.Errorf("optimizer: correlation column lost during planning")
		}
		if c.op == expr.EQ && !usedHash {
			usedHash = true
			outerKey, innerKey = opos, ipos
			continue
		}
		extras = append(extras, &expr.Cmp{
			Op: c.op,
			L:  &expr.ColRef{Index: opos, Name: p.bq.global.Cols[c.outerCol].Name},
			R:  &expr.ColRef{Index: outerArity + ipos, Name: spec.sub.global.Cols[c.subCol].Name},
		})
	}

	sel := p.semiSelectivity(spec, outerKey, inner)
	if spec.anti {
		sel = 1 - sel
	}
	outEst := plan.Est{
		Card:  math.Max(0, sel) * outer.node.Est().Card,
		Width: outer.node.Est().Width,
	}
	j := &plan.SemiJoin{
		Outer:     outer.node,
		Inner:     inner.node,
		OuterKey:  outerKey,
		InnerKey:  innerKey,
		ExtraPred: expr.Conjoin(extras),
		Anti:      spec.anti,
		Sel:       math.Max(0, sel),
		OutEst:    outEst,
	}
	// The match set is a boundary; a pure NL semi also rescans it.
	innerBytes := inner.node.Est().Bytes()
	cost := outer.cost + inner.cost + segment.BoundaryBytes(innerBytes)
	if outerKey < 0 {
		cost += segment.RescanBytes(outer.node.Est().Card, innerBytes)
	}
	semi := built(j, outer.cols, cost)
	if err := p.note(&semi); err != nil {
		return dpEntry{}, err
	}
	return semi, nil
}

// semiSelectivity estimates the fraction of outer tuples with at least
// one match: the containment assumption gives ndv(inner)/ndv(outer) for
// an equality correlation, capped at 1.
func (p *planner) semiSelectivity(spec *subquerySpec, outerKey int, inner dpEntry) float64 {
	if outerKey < 0 {
		return 0.5
	}
	var outerNDV, innerNDV float64
	for _, c := range spec.corr {
		if c.op != expr.EQ {
			continue
		}
		if cs := p.bq.colStatsFor(c.outerCol); cs != nil && cs.NDV > 0 {
			outerNDV = float64(cs.NDV)
		}
		if cs := spec.sub.colStatsFor(c.subCol); cs != nil && cs.NDV > 0 {
			innerNDV = math.Min(float64(cs.NDV), inner.node.Est().Card)
		}
		break
	}
	if outerNDV <= 0 || innerNDV <= 0 {
		return stats.DefaultIneqSel
	}
	return math.Min(1, innerNDV/outerNDV)
}
