package optimizer

import (
	"fmt"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// BenchmarkPlan is the planner's layer number: one op plans every
// closureStatements statement once, from its parsed form, on the
// TestCostClosure catalog (the paper workload at scale 0.02 with bench/'s
// indexes), at each of bench/'s two work_mem settings.
//
//	go test -run '^$' -bench Plan -benchtime 100x ./internal/optimizer
func BenchmarkPlan(b *testing.B) {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	if _, err := workload.Load(cat, workload.Config{Scale: 0.02, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		tbl, err := cat.Table(ix[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cat.CreateIndex(tbl, ix[1]); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.AnalyzeAll(); err != nil {
		b.Fatal(err)
	}
	var stmts []*sqlparser.SelectStmt
	for _, sql := range closureStatements() {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	for _, wm := range []int{16, 2048} {
		b.Run(fmt.Sprintf("work_mem=%d", wm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, stmt := range stmts {
					if _, err := Plan(cat, stmt, Options{WorkMemPages: wm}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
