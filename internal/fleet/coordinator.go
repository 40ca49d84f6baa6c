// The fleet coordinator: classifies an incoming query, rewrites it into
// a per-shard subquery, fans the subquery out across all shards
// concurrently, and merges the results.
//
// Rewrite rules:
//
//   - Single-table scans/filters fan out verbatim; the coordinator
//     unions the streams. ORDER BY and LIMIT are pushed down (each
//     shard's top-K is a superset of its contribution to the global
//     top-K) and re-applied globally — a k-way merge of the sorted
//     per-shard streams when ordered, a concatenation otherwise.
//   - Multi-table joins fan out only when co-partitioned: the top-level
//     equality predicates must chain every FROM table's partition key
//     into one equivalence class, so every matching pair of rows is
//     guaranteed to live on the same shard and the join is the union of
//     the shard-local joins. Anything else is rejected with
//     ErrUnsupported rather than silently dropping cross-shard matches.
//   - Aggregates are split: each shard computes partial aggregates
//     (avg(x) becomes sum(x) plus count(*)), and the coordinator
//     re-aggregates partials by group key — counts and sums add, min
//     and max fold, avg divides the merged sums. The Chen–Schneider
//     bound argument applies at the coordinator: merged cardinality
//     never exceeds the sum of per-shard outputs, which each shard's
//     own optimizer already caps.
//
// Failure protocol: the first shard to fail cancels the shared context,
// its siblings unwind at their next executor safe point, and the
// coordinator surfaces the root cause as a *ShardError naming the shard.
// A user cancellation reaches every shard through the same context and
// is reported as such (errors.Is(err, context.Canceled)).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"progressdb"
	"progressdb/internal/sqlparser"
)

// ErrUnsupported marks queries the coordinator cannot distribute
// (subqueries, non-co-partitioned joins, unregistered tables). The
// wrapped error message names the specific reason.
var ErrUnsupported = errors.New("not shard-distributable")

// ShardError attributes a fleet query failure to the shard that caused
// it. Unwrap exposes the shard's own error, so errors.Is sees through to
// context.Canceled, deadline errors, or injected faults.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("fleet: shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// ShardResult summarizes one shard's contribution to a fleet query.
type ShardResult struct {
	// Shard is the shard id.
	Shard int
	// Rows is the number of rows the shard's subquery produced (before
	// coordinator-side merging).
	Rows int
	// VirtualSeconds is the subquery's execution time on the shard's own
	// virtual clock.
	VirtualSeconds float64
	// DoneU is the shard's final completed work in U.
	DoneU float64
}

// Result is a completed fleet query.
type Result struct {
	// Columns are the merged output column names.
	Columns []string
	// Rows is the merged result (nil for the discard path).
	Rows [][]interface{}
	// VirtualSeconds is the max across shards — the fleet's barrier-
	// merged virtual clock: parallel shards finish when the slowest does.
	VirtualSeconds float64
	// History is every aggregated progress report published during
	// execution, ending with the terminal Finished report.
	History []Report
	// Shards holds each shard's contribution summary, in shard order.
	Shards []ShardResult
}

// Exec runs a query across the fleet, invoking onProgress (if non-nil)
// at every aggregated refresh.
func (f *Fleet) Exec(sql string, onProgress func(Report)) (*Result, error) {
	return f.exec(context.Background(), sql, onProgress, true)
}

// ExecContext is Exec with cancellation: canceling ctx cancels every
// shard's subquery at its next safe point.
func (f *Fleet) ExecContext(ctx context.Context, sql string, onProgress func(Report)) (*Result, error) {
	return f.exec(ctx, sql, onProgress, true)
}

// ExecDiscard runs a query without materializing result rows.
func (f *Fleet) ExecDiscard(sql string, onProgress func(Report)) (*Result, error) {
	return f.exec(context.Background(), sql, onProgress, false)
}

// ExecDiscardContext is ExecDiscard with cancellation.
func (f *Fleet) ExecDiscardContext(ctx context.Context, sql string, onProgress func(Report)) (*Result, error) {
	return f.exec(ctx, sql, onProgress, false)
}

// EstimateCostU prices a query before running it: the sum across shards
// of each shard optimizer's initial total cost estimate in U for the
// rewritten per-shard subquery — the figure the serving layer's
// admission controller charges against its in-flight budget. Like
// DB.EstimateCostU it is a pure read (no clock charges, no storage), so
// it is safe concurrently with running subqueries, but not with DDL,
// inserts, or Analyze.
func (f *Fleet) EstimateCostU(sql string) (float64, error) {
	qp, err := f.rewrite(sql)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, sh := range f.shards {
		u, err := sh.db.EstimateCostU(qp.shardSQL)
		if err != nil {
			return 0, fmt.Errorf("fleet: shard %d estimate: %w", sh.id, err)
		}
		total += u
	}
	return total, nil
}

func (f *Fleet) exec(ctx context.Context, sql string, onProgress func(Report), keepRows bool) (*Result, error) {
	f.met.queries.Inc()
	qp, err := f.rewrite(sql)
	if err != nil {
		if errors.Is(err, ErrUnsupported) {
			f.met.unsupported.Inc()
		}
		f.met.failed.Inc()
		return nil, err
	}

	agg := newAggregator(f, onProgress)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(f.shards)
	results := make([]*progressdb.Result, n)
	errs := make([]error, n)
	var propagate sync.Once
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			f.met.subqueries.Inc()
			f.met.shardQueries[sh.id].Inc()
			f.met.shardBusy[sh.id].Set(1)
			defer f.met.shardBusy[sh.id].Set(0)
			// The subquery runs once, like DB.ExecContext: transient I/O
			// faults are retried inside the shard's buffer pool, the one
			// retry layer, and whatever outlives it fails the query.
			onShard := func(r progressdb.Report) { agg.shardUpdate(sh.id, r) }
			var err error
			if keepRows {
				results[sh.id], err = sh.db.ExecContext(ctx, qp.shardSQL, onShard)
			} else {
				results[sh.id], err = sh.db.ExecDiscardContext(ctx, qp.shardSQL, onShard)
			}
			if err != nil {
				errs[sh.id] = &ShardError{Shard: sh.id, Err: err}
				// Distributed cancellation: first failure cancels the
				// siblings. The Once keeps the metric at one propagation
				// per query even when several shards fail on their own.
				propagate.Do(func() {
					f.met.cancels.Inc()
					cancel()
				})
			}
		}(sh)
	}
	wg.Wait()

	if err := pickError(errs); err != nil {
		f.met.failed.Inc()
		return nil, err
	}

	agg.finish() // exactly-once terminal report

	out := &Result{History: agg.history}
	var total int
	for _, sh := range f.shards {
		res := results[sh.id]
		sr := ShardResult{Shard: sh.id, Rows: len(res.Rows), VirtualSeconds: res.VirtualSeconds}
		if len(res.History) > 0 {
			sr.DoneU = res.History[len(res.History)-1].DoneU
		}
		out.Shards = append(out.Shards, sr)
		if res.VirtualSeconds > out.VirtualSeconds {
			out.VirtualSeconds = res.VirtualSeconds
		}
		total += len(res.Rows)
	}
	f.met.rowsMerged.Add(int64(total))

	if err := mergeResults(out, results, qp, keepRows); err != nil {
		f.met.failed.Inc()
		return nil, err
	}
	return out, nil
}

// pickError chooses the query's primary error among the per-shard
// errors (each already a *ShardError): the first shard that failed for
// its own reasons, not because a sibling's failure canceled it. When
// every shard reports a context error (user cancellation or deadline),
// the lowest-numbered shard speaks for the fleet.
func pickError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// ---- classification & rewrite ----------------------------------------

// queryPlan is the coordinator's execution recipe for one query.
type queryPlan struct {
	// shardSQL is the per-shard subquery (identical on every shard).
	shardSQL string
	// agg is non-nil for the re-aggregation path.
	agg *aggQueryPlan
	// orderBy/limit are re-applied globally after the merge.
	orderBy []sqlparser.OrderItem
	limit   *int64
	// star records SELECT * (merge resolves ORDER BY against shard
	// columns in that case).
	star bool
}

func unsupportedf(format string, args ...interface{}) error {
	return fmt.Errorf("fleet: "+format+": %w", append(args, ErrUnsupported)...)
}

func (f *Fleet) rewrite(sql string) (*queryPlan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if exprHasSubquery(stmt.Where) {
		return nil, unsupportedf("subqueries cannot run shard-local")
	}

	// Every referenced table must have a registered partition key.
	f.mu.Lock()
	keyOf := make(map[string]string, len(stmt.From)) // binding -> partition key column
	for _, tr := range stmt.From {
		ti := f.tables[strings.ToLower(tr.Table)]
		if ti == nil {
			f.mu.Unlock()
			return nil, unsupportedf("table %q has no partition key registered with the fleet", tr.Table)
		}
		keyOf[strings.ToLower(tr.Binding())] = strings.ToLower(ti.key)
	}
	f.mu.Unlock()

	if len(stmt.From) > 1 {
		if err := checkCoPartitioned(stmt, keyOf); err != nil {
			return nil, err
		}
	}

	hasAgg := false
	for _, it := range stmt.Items {
		if it.Agg != "" {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(stmt.GroupBy) > 0 {
		return rewriteAggregate(stmt)
	}

	// Pass-through: the shard statement is the query itself. ORDER BY
	// and LIMIT stay pushed down (shard top-K ⊇ its share of the global
	// top-K) and are re-applied by the merge.
	if len(stmt.OrderBy) > 0 && !stmt.Star {
		for _, o := range stmt.OrderBy {
			if findItemIndex(stmt.Items, o.Col) < 0 {
				return nil, unsupportedf("ORDER BY column %s must appear in the select list for a merged fleet query", o.Col)
			}
		}
	}
	return &queryPlan{
		shardSQL: stmt.String(),
		orderBy:  stmt.OrderBy,
		limit:    stmt.Limit,
		star:     stmt.Star,
	}, nil
}

// findItemIndex locates a plain select-list item matching col (used to
// resolve ORDER BY positions). Qualified references match same-named
// qualified items or plain column names.
func findItemIndex(items []sqlparser.SelectItem, col sqlparser.ColumnRef) int {
	for i, it := range items {
		if it.Agg != "" {
			continue
		}
		if !strings.EqualFold(it.Col.Column, col.Column) {
			continue
		}
		if col.Qualifier == "" || it.Col.Qualifier == "" || strings.EqualFold(it.Col.Qualifier, col.Qualifier) {
			return i
		}
	}
	return -1
}

// exprHasSubquery walks a predicate for EXISTS/IN subqueries.
func exprHasSubquery(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case sqlparser.AndExpr:
		return exprHasSubquery(x.L) || exprHasSubquery(x.R)
	case sqlparser.Comparison:
		return exprHasSubquery(x.L) || exprHasSubquery(x.R)
	case sqlparser.FuncCall:
		for _, a := range x.Args {
			if exprHasSubquery(a) {
				return true
			}
		}
		return false
	case sqlparser.ExistsExpr, sqlparser.InExpr:
		return true
	default:
		return false
	}
}

// checkCoPartitioned verifies a multi-table query joins shard-locally:
// the top-level equality predicates must place every table's partition
// key in one equivalence class. Equal partition keys hash to the same
// shard (same hash, same shard count fleet-wide), so every joinable row
// pair is co-resident and the global join is the union of shard joins.
func checkCoPartitioned(stmt *sqlparser.SelectStmt, keyOf map[string]string) error {
	uf := newUnionFind()

	// Resolve an unqualified column to its binding only when the query
	// has a single table (otherwise ambiguous — skipped conservatively,
	// which can only make the check stricter).
	soleBinding := ""
	if len(stmt.From) == 1 {
		soleBinding = strings.ToLower(stmt.From[0].Binding())
	}
	node := func(c sqlparser.ColumnRef) string {
		q := strings.ToLower(c.Qualifier)
		if q == "" {
			q = soleBinding
		}
		if q == "" {
			return ""
		}
		return q + "." + strings.ToLower(c.Column)
	}

	var collect func(e sqlparser.Expr)
	collect = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case sqlparser.AndExpr:
			collect(x.L)
			collect(x.R)
		case sqlparser.Comparison:
			if x.Op != "=" {
				return
			}
			l, lok := x.L.(sqlparser.ColumnRef)
			r, rok := x.R.(sqlparser.ColumnRef)
			if lok && rok {
				if ln, rn := node(l), node(r); ln != "" && rn != "" {
					uf.union(ln, rn)
				}
			}
		}
	}
	collect(stmt.Where)

	root := ""
	var keyNodes []string
	for _, tr := range stmt.From {
		b := strings.ToLower(tr.Binding())
		kn := b + "." + keyOf[b]
		keyNodes = append(keyNodes, kn)
		if root == "" {
			root = uf.find(kn)
		} else if uf.find(kn) != root {
			return unsupportedf("join is not co-partitioned: no equality chain links partition keys %s", strings.Join(keyNodes, ", "))
		}
	}
	return nil
}

// unionFind is a tiny string-keyed disjoint-set.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: map[string]string{}} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		u.parent[x] = x
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
