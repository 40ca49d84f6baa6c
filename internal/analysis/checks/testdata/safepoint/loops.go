// Fixture for the safepoint analyzer, type-checked under the assumed
// import path progressdb/internal/exec. It models the executor's loop
// shapes: drain loops pumping exported Iterator.Next are transitively
// safe, loops with a direct yield/checkCancel are safe, and unbounded
// loops pumping raw scanners or unexported helpers must be flagged.
package fixture

type row []byte

// iter has the executor Iterator shape: Next() (T, bool, error).
type iter struct{}

func (iter) Next() (row, bool, error) { return nil, false, nil }

// scanner mimics storage.Scanner: exported Next without the Iterator
// shape (no trailing error result), so pumping it is not a safe point.
type scanner struct{}

func (scanner) Next() (row, int, bool) { return nil, 0, false }

// merger mimics an unexported spill-merge helper: Iterator-shaped
// results but unexported, so no transitive safety guarantee.
type merger struct{}

func (merger) next() (row, bool, error) { return nil, false, nil }

type env struct{}

func (env) yield() error       { return nil }
func (env) checkCancel() error { return nil }

type clock struct{}

func (clock) ChargeCPU(n float64) {}

func drainChild(it iter) error {
	for { // exported Iterator.Next pump: transitively safe
		_, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func scanWithYield(sc scanner, e env) error {
	for { // raw scanner pump with a direct safe point: fine
		_, _, ok := sc.Next()
		if !ok {
			return nil
		}
		if err := e.yield(); err != nil {
			return err
		}
	}
}

func scanWithoutYield(sc scanner, c clock) {
	for { // want `unbounded tuple loop without a cancellation safe point`
		_, _, ok := sc.Next()
		if !ok {
			return
		}
		c.ChargeCPU(1)
	}
}

func mergeWithoutYield(m merger) error {
	for { // want `unbounded tuple loop without a cancellation safe point`
		_, ok, err := m.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func mergeWithCheckCancel(m merger, e env) error {
	for { // unexported pump but direct ctx poll: fine
		_, ok, err := m.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := e.checkCancel(); err != nil {
			return err
		}
	}
}

func probeThenSpilledBatch(it iter, sc scanner) error {
	drained := false
	for { // want `unbounded tuple loop without a cancellation safe point`
		if !drained { // hashJoin.Next's shape: the Iterator branch ends,
			_, ok, err := it.Next()
			if err != nil {
				return err
			}
			drained = !ok
			continue
		}
		// ...and the raw-scanner branch then runs alone, deaf to cancel.
		if _, _, ok := sc.Next(); !ok {
			return nil
		}
	}
}

func boundedLoop(rows []row, c clock) {
	// Bounded loops (condition or range) are exempt: their per-entry
	// work is limited by what an enclosing safe loop handed them.
	for i := 0; i < len(rows); i++ {
		c.ChargeCPU(1)
	}
	for range rows {
		c.ChargeCPU(1)
	}
}

func suppressedScan(sc scanner, c clock) {
	//lint:ignore safepoint fixture: bounded by construction, checked by caller
	for {
		_, _, ok := sc.Next()
		if !ok {
			return
		}
		c.ChargeCPU(1)
	}
}
