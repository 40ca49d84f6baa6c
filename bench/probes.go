package main

import (
	"fmt"
	"math/rand"
	"time"

	"progressdb"
	"progressdb/internal/core"
	"progressdb/internal/expr"
	"progressdb/internal/harness"
	"progressdb/internal/obs"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Unit-cost probes: leaf layers that are only reachable inside exec.Run
// cannot be given a span from outside, so each gets a fixed-iteration
// timed loop over its public function on this workload's own data. A
// probe reports nanoseconds per call, median of probeLoops loops.

const probeLoops = 5

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int

// timeLoop runs body probeLoops times and returns the median cost of one
// of the calls calls it makes, in nanoseconds.
func timeLoop(calls int, body func() error) (float64, error) {
	per := make([]float64, 0, probeLoops)
	for i := 0; i < probeLoops; i++ {
		t0 := time.Now()
		if err := body(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(per), nil
}

// findNode returns the first plan node in pre-order that match accepts.
func findNode(n plan.Node, match func(plan.Node) bool) plan.Node {
	if match(n) {
		return n
	}
	for _, c := range n.Children() {
		if m := findNode(c, match); m != nil {
			return m
		}
	}
	return nil
}

func (s *stagedEngine) planOf(sql string) (plan.Node, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("probe: parse: %w", err)
	}
	p, err := optimizer.Plan(s.cat, stmt, optimizer.Options{WorkMemPages: s.workMem})
	if err != nil {
		return nil, fmt.Errorf("probe: plan: %w", err)
	}
	return p, nil
}

// sampleRows returns up to n records of a table and their decoded rows.
func (s *stagedEngine) sampleRows(table string, n int) (recs [][]byte, rows []tuple.Tuple, err error) {
	t, err := s.cat.Table(table)
	if err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	sc := t.Heap.NewScanner()
	defer sc.Close()
	for len(recs) < n {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := tuple.Decode(rec, t.Schema.Arity())
		if err != nil {
			return nil, nil, fmt.Errorf("probe: decoding %s: %w", table, err)
		}
		recs = append(recs, append([]byte(nil), rec...))
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("probe: scanning %s: %w", table, err)
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("probe: table %s is empty", table)
	}
	return recs, rows, nil
}

// runProbes measures every unit-cost probe on the staged engine's data
// and stores the results under their per-layer metric names.
func (s *stagedEngine) runProbes(iters int, seed int64, customers int, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))

	// core: a live indicator over q1's single-segment plan.
	p, err := s.planOf(mix9[0].SQL)
	if err != nil {
		return err
	}
	d := segment.Decompose(p, s.workMem)
	ind := core.New(s.group.Worker(), d, core.Options{UpdatePeriod: s.update})
	ind.Start()
	defer ind.Stop()
	last := len(d.Segments) - 1
	if m["core.reporter_call_ns"], err = timeLoop(2*iters, func() error {
		for i := 0; i < iters; i++ {
			ind.InputTuple(last, 0, 119)
			ind.OutputTuple(last, 119)
		}
		return nil
	}); err != nil {
		return err
	}
	cur := iters/20 + 1
	ns, err := timeLoop(cur, func() error {
		for i := 0; i < cur; i++ {
			probeSink += ind.Current().SegmentsDone
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.current_us"] = ns / 1e3

	// tuple: the codec over lineitem records.
	recs, rows, err := s.sampleRows("lineitem", 4096)
	if err != nil {
		return err
	}
	arity := len(rows[0])
	if m["tuple.decode_ns"], err = timeLoop(iters, func() error {
		for i := 0; i < iters; i++ {
			t, err := tuple.Decode(recs[i%len(recs)], arity)
			if err != nil {
				return fmt.Errorf("probe: decode: %w", err)
			}
			probeSink += len(t)
		}
		return nil
	}); err != nil {
		return err
	}
	var buf []byte
	if m["tuple.encode_ns"], err = timeLoop(iters, func() error {
		for i := 0; i < iters; i++ {
			buf = rows[i%len(rows)].Encode(buf[:0])
		}
		probeSink += len(buf)
		return nil
	}); err != nil {
		return err
	}

	// expr: q2's filter over lineitem rows and q5's join predicate over
	// concatenated subset rows, one call of each per iteration.
	q2, err := s.planOf(mix9[1].SQL)
	if err != nil {
		return err
	}
	q5, err := s.planOf(mix9[4].SQL)
	if err != nil {
		return err
	}
	filter, _ := findNode(q2, func(n plan.Node) bool { _, ok := n.(*plan.Filter); return ok }).(*plan.Filter)
	join, _ := findNode(q5, func(n plan.Node) bool { _, ok := n.(*plan.NLJoin); return ok }).(*plan.NLJoin)
	if filter == nil || join == nil || join.Pred == nil {
		return fmt.Errorf("probe: q2 has no Filter or q5 no NLJoin predicate; the plans changed shape")
	}
	_, sub1, err := s.sampleRows("customer_subset1", 64)
	if err != nil {
		return err
	}
	_, sub2, err := s.sampleRows("customer_subset2", 64)
	if err != nil {
		return err
	}
	var pairs []tuple.Tuple
	for i, a := range sub1 {
		pairs = append(pairs, a.Concat(sub2[(i+1)%len(sub2)]))
	}
	if m["expr.evalbool_ns"], err = timeLoop(2*iters, func() error {
		for i := 0; i < iters; i++ {
			a, err := expr.EvalBool(filter.Pred, rows[i%len(rows)])
			if err != nil {
				return fmt.Errorf("probe: q2 predicate: %w", err)
			}
			b, err := expr.EvalBool(join.Pred, pairs[i%len(pairs)])
			if err != nil {
				return fmt.Errorf("probe: q5 predicate: %w", err)
			}
			if a && b {
				probeSink++
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// vclock: one CPU charge on a worker clock with no tickers.
	clk := s.group.Worker()
	if m["vclock.charge_ns"], err = timeLoop(iters, func() error {
		for i := 0; i < iters; i++ {
			clk.ChargeCPU(1)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := s.storageProbes(iters, recs, m); err != nil {
		return err
	}

	// btree: point searches on the customer index, with the pool's own
	// lookup count as pages per search.
	cust, err := s.cat.Table("customer")
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	ix := cust.IndexOn("custkey")
	if ix == nil {
		return fmt.Errorf("probe: customer has no custkey index")
	}
	keys := make([]int64, 1024)
	for i := range keys {
		keys[i] = int64(rng.Intn(customers))
	}
	searches := iters/10 + 1
	before := s.pool.Stats()
	if m["btree.search_ns"], err = timeLoop(searches, func() error {
		for i := 0; i < searches; i++ {
			rids, err := ix.Tree.Search(keys[i%len(keys)])
			if err != nil {
				return fmt.Errorf("probe: btree search: %w", err)
			}
			probeSink += len(rids)
		}
		return nil
	}); err != nil {
		return err
	}
	after := s.pool.Stats()
	m["btree.pages_per_search"] = float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(searches*probeLoops)

	// obs: one counter increment on a live registry.
	ctr := obs.NewRegistry().Counter("engine_bench_probe_total", "unit-cost probe counter")
	if m["obs.counter_inc_ns"], err = timeLoop(iters, func() error {
		for i := 0; i < iters; i++ {
			ctr.Inc()
		}
		return nil
	}); err != nil {
		return err
	}
	probeSink += int(ctr.Value())
	return nil
}

// storageProbes times the buffer pool's hit and miss paths on a private
// 128-page pool (misses evict), Scanner.Next over the workload's own
// lineitem heap and pool, and the temp-file write path (Append + Sync).
func (s *stagedEngine) storageProbes(iters int, recs [][]byte, m map[string]float64) error {
	const poolPages, filePages = 128, 512
	clk := s.group.Worker()
	pool := storage.NewBufferPool(storage.NewDisk(clk), poolPages)
	hf := storage.CreateHeapFile(pool)
	for hf.NumPages() <= filePages {
		if _, err := hf.Append(recs[int(hf.Len())%len(recs)]); err != nil {
			return fmt.Errorf("probe: filling the pool-probe file: %w", err)
		}
	}
	if err := hf.Sync(); err != nil {
		return fmt.Errorf("probe: filling the pool-probe file: %w", err)
	}
	get := func(lo, span int) func() error {
		return func() error {
			for i := 0; i < iters; i++ {
				page, err := pool.Get(storage.PageID{File: hf.ID(), Num: int32(lo + i%span)})
				if err != nil {
					return fmt.Errorf("probe: pool get: %w", err)
				}
				probeSink += len(page)
			}
			return nil
		}
	}
	var err error
	// 64 pages cycled through a 128-page pool: resident after the first
	// lap of the first loop. 512 pages cycled in order: LRU never has the
	// next one.
	if m["storage.pool_hit_ns"], err = timeLoop(iters, get(0, poolPages/2)); err != nil {
		return err
	}
	if m["storage.pool_miss_ns"], err = timeLoop(iters, get(0, filePages)); err != nil {
		return err
	}

	li, err := s.cat.Table("lineitem")
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if m["storage.scan_next_ns"], err = timeLoop(int(li.Heap.Len()), func() error {
		sc := li.Heap.NewScanner()
		defer sc.Close()
		for {
			rec, _, ok := sc.Next()
			if !ok {
				break
			}
			probeSink += len(rec)
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("probe: scan: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}

	if m["storage.append_ns"], err = timeLoop(iters, func() error {
		tmp := storage.CreateTempHeapFile(s.pool)
		for i := 0; i < iters; i++ {
			if _, err := tmp.Append(recs[i%len(recs)]); err != nil {
				return fmt.Errorf("probe: temp append: %w", err)
			}
		}
		if err := tmp.Sync(); err != nil {
			return fmt.Errorf("probe: temp sync: %w", err)
		}
		if err := tmp.Drop(); err != nil {
			return fmt.Errorf("probe: temp drop: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// ratio is a with/without wall ratio from interleaved pairs: the median
// of the per-pair ratios with its quartiles. On a shared host a ratio
// this close to 1 is not resolved by wall time (the quartiles say how
// unresolved); it is reported, never gated.
type ratio struct{ Median, Q1, Q3 float64 }

// pairedRatio runs pairs interleaved pairs of with() and without(),
// alternating which goes first, and returns the ratio of their times.
func pairedRatio(pairs int, with, without func() error) (ratio, error) {
	timed := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0).Nanoseconds()), err
	}
	rs := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var w, wo float64
		var err error
		if i%2 == 0 {
			if w, err = timed(with); err == nil {
				wo, err = timed(without)
			}
		} else {
			if wo, err = timed(without); err == nil {
				w, err = timed(with)
			}
		}
		if err != nil {
			return ratio{}, err
		}
		rs = append(rs, w/wo)
	}
	q1, q3 := quartiles(rs)
	return ratio{Median: median(rs), Q1: q1, Q3: q3}, nil
}

// indicatorRatio is the paper's "< 1 %" claim as a wall ratio: q2 with
// and without the indicator on one harness engine sized like w.
func indicatorRatio(w *workloadDef, sz sizing) (ratio, error) {
	probe, err := harness.Runner{
		Scale: sz.Scale, UpdatePeriod: updatePeriod,
		WorkMemPages: w.WorkMemPages, BufferPoolPages: w.PoolPages,
	}.OverheadProbe(2)
	if err != nil {
		return ratio{}, fmt.Errorf("indicator ratio: %w", err)
	}
	for i := 0; i < 2; i++ { // warm the pool and the heap
		if err := probe(i == 0); err != nil {
			return ratio{}, fmt.Errorf("indicator ratio: %w", err)
		}
	}
	return pairedRatio(sz.Pairs,
		func() error { return probe(true) },
		func() error { return probe(false) })
}

// metricsRatio is the same for the engine's metrics registry: q2 on two
// identically loaded DBs, Metrics on and off.
func metricsRatio(w *workloadDef, sz sizing) (ratio, error) {
	dbs := make([]*progressdb.DB, 2)
	for i := range dbs {
		cfg := w.config(sz)
		cfg.Metrics = i == 0
		dbs[i] = progressdb.Open(cfg)
		if err := dbs[i].LoadPaperWorkload(sz.Scale, false); err != nil {
			return ratio{}, fmt.Errorf("metrics ratio: loading data: %w", err)
		}
	}
	run := func(db *progressdb.DB) func() error {
		return func() error {
			_, err := db.ExecDiscard(mix9[1].SQL, nil)
			return err
		}
	}
	for _, db := range dbs {
		if err := run(db)(); err != nil {
			return ratio{}, fmt.Errorf("metrics ratio: %w", err)
		}
	}
	return pairedRatio(sz.Pairs, run(dbs[0]), run(dbs[1]))
}
