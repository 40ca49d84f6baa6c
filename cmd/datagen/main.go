// Command datagen generates the paper's Table 1 data set at a chosen
// scale and prints the table of cardinalities and sizes.
//
// Usage:
//
//	datagen [-scale 0.05] [-correlated] [-seed 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"progressdb/internal/catalog"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction of the paper's Table 1 cardinalities (1.0 = 0.15M/1.5M/6M rows)")
	correlated := flag.Bool("correlated", false, "use the Q3 correlated-orders variant")
	seed := flag.Int64("seed", 0, "generator seed")
	flag.Parse()

	cfg := workload.Config{Scale: *scale, Seed: *seed, CorrelatedOrders: *correlated}

	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	ds, err := workload.Load(cat, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	tbl, err := ds.Table1(cat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Println("Table 1. Test data set.")
	fmt.Print(tbl)
	if *correlated {
		fmt.Println("(orders uses the Q3 correlated fanout: nationkey 0-9 -> 20 orders, 10-19 -> 0, 20-24 -> 10)")
	}
}
