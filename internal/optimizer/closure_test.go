package optimizer

import (
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// closureStatements are the twelve statements bench/ runs (Q1–Q5, the
// sort, two aggregates, the semi-join, three lookups), a correlation
// with no equality (the only way to a pure nested-loops semi-join and
// its rescan term), a filter-sort-limit join and a three-table aggregate.
func closureStatements() []string {
	var out []string
	for _, st := range workload.BenchStatements {
		out = append(out, st.SQL)
	}
	return append(out,
		"select * from customer c where not exists (select * from orders o where o.totalprice < c.acctbal)",
		"select c.custkey, o.orderkey from customer c, orders o where c.custkey=o.custkey and c.nationkey<3 order by o.orderkey limit 10",
		`select c.nationkey, count(*), sum(l.extendedprice) from customer c, orders o, lineitem l
			where c.custkey = o.custkey and o.orderkey = l.orderkey group by c.nationkey`,
	)
}

// TestCostClosure pins "one cost module, two callers": the cost the
// optimizer chooses a plan by is the cost the progress indicator starts
// tracking it with. Every entry the planner prices — each access path,
// each join candidate joinCandidates returns (materialized NL inners
// included), each applied semi-join — over 15 statements × 4 work_mem × 4
// join hints on the paper workload must satisfy
//
//	entry.cost == segment.Decompose(entry.node, workMem).TotalInitCost()
//
// with ==, not a tolerance: both sides are sums of the same
// internal/segment calls over the same estimates.
//
// The one sanctioned difference is an index scan. The indicator counts
// its matching tuples' bytes like any base input, but the optimizer's
// choice prices one random page per matching tuple (RandFactor ×
// PageSize each) so that an index wins only where it saves time, not
// merely bytes. An entry over an index scan is therefore held to
// cost − Σ(penalty − index bytes).
func TestCostClosure(t *testing.T) {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	if _, err := workload.Load(cat, workload.Config{Scale: 0.02, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		tbl, err := cat.Table(ix[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.CreateIndex(tbl, ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}

	plannings, entries, joins, indexed := 0, 0, 0, 0
	for _, sql := range closureStatements() {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, workMem := range []int{4, 16, 64, 2048} {
			for _, algo := range []string{"", "hash", "nl", "merge"} {
				bq, err := bind(cat, stmt)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				opt := Options{WorkMemPages: workMem, ForceJoinAlgo: algo}.withDefaults()
				p := &planner{bq: bq, opt: opt}
				p.priced = func(e *dpEntry) {
					entries++
					if findTopJoin(e.node) != nil {
						joins++
					}
					penalty := indexChoicePenalty(e.node, opt.RandFactor)
					if penalty != 0 {
						indexed++
					}
					want := segment.Decompose(e.node, workMem).TotalInitCost()
					if got := e.cost - penalty; got != want {
						t.Errorf("work_mem=%d force=%q %s\n%soptimizer cost %v (index penalty %v) != segment cost %v (diff %g)",
							workMem, algo, sql, plan.Format(e.node), e.cost, penalty, want, got-want)
					}
				}
				if _, err := p.run(); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				plannings++
			}
		}
	}
	t.Logf("%d plannings, %d priced entries (%d with a join, %d over an index scan)", plannings, entries, joins, indexed)
	// The counts depend on the statements' shape only, not on the data: a
	// drop means the tap came loose and the loop above checked less.
	if plannings != 240 || joins < 1280 || indexed == 0 {
		t.Fatalf("checked %d plannings, %d join entries, %d indexed entries; want 240, ≥ 1280, > 0", plannings, joins, indexed)
	}
}

// indexChoicePenalty sums, over the index scans under n, what indexPath
// charges for the scan beyond its U: penalty − matching bytes.
func indexChoicePenalty(n plan.Node, randFactor float64) float64 {
	sum := 0.0
	if ix, ok := n.(*plan.IndexScan); ok {
		sum = ix.OutEst.Card*storage.PageSize*randFactor - ix.OutEst.Bytes()
	}
	for _, c := range n.Children() {
		sum += indexChoicePenalty(c, randFactor)
	}
	return sum
}
