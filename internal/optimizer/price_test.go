package optimizer

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// TestPricesExactOnFractionalWidths holds each priced entry's estimate
// to the tree build makes of it, with ==, on tables whose string columns
// average a fractional width. Every column of the paper workload is a
// whole number of bytes wide, so there TestCostClosure cannot see the
// order a join's width is summed in; here that order shows in the
// estimate's last bits. The cost is held to the tree's segment cost
// only to a relative 1e-12: with fractional widths the optimizer's sum
// over the join tree and Decompose's sum over segments round apart.
func TestPricesExactOnFractionalWidths(t *testing.T) {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 1024))
	for ti, name := range []string{"r", "s", "u"} {
		tbl, err := cat.CreateTable(name, tuple.NewSchema(
			tuple.Column{Name: "k", Type: tuple.Int},
			tuple.Column{Name: "a", Type: tuple.String},
			tuple.Column{Name: "b", Type: tuple.String},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200*(ti+1); i++ {
			row := tuple.Tuple{tuple.NewInt(int64(i % 150)),
				tuple.NewString(strings.Repeat("a", i%(7+ti))), tuple.NewString(strings.Repeat("b", i%(11+2*ti)))}
			if err := cat.Insert(tbl, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Heap.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}

	joins := 0
	for _, sql := range []string{
		"select * from r, s, u where r.k = s.k and s.k = u.k",
		"select r.b, s.a, u.b, u.a from r, s, u where r.k = s.k and s.k = u.k and r.a < u.b",
		"select s.b, r.a from r, s where r.k < s.k",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, workMem := range []int{2, 2048} {
			for _, algo := range []string{"", "hash", "nl", "merge"} {
				bq, err := bind(cat, stmt)
				if err != nil {
					t.Fatal(err)
				}
				p := &planner{bq: bq, opt: Options{WorkMemPages: workMem, ForceJoinAlgo: algo}.withDefaults()}
				p.priced = func(e *dpEntry) {
					if e.step.algo != noJoin {
						joins++
					}
					where := fmt.Sprintf("work_mem=%d force=%q %s\n%s", workMem, algo, sql, plan.Format(e.node))
					if got := e.node.Est(); e.est != got {
						t.Errorf("%spriced estimate %+v, built %+v", where, e.est, got)
					}
					if want := segment.Decompose(e.node, workMem).TotalInitCost(); math.Abs(e.cost-want) > 1e-12*want {
						t.Errorf("%spriced cost %v, segment cost %v", where, e.cost, want)
					}
				}
				if _, err := p.run(); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
		}
	}
	if joins == 0 {
		t.Fatal("no join candidate was priced")
	}
}
