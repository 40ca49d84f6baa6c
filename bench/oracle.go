package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// reference is what set-up learned about one distinct SQL text by running
// it once through DB.Exec: the answers every measured op is held to.
type reference struct {
	// Rows and Sum describe the result set (Rows < 0: not materialized,
	// as for q5's 9 M rows). Sum is order-insensitive.
	Rows int
	Sum  uint64
	// DoneU is the terminal report's work total. It counts bytes at
	// segment boundaries, not I/O, so it is the same whatever the buffer
	// pool holds and must repeat exactly.
	DoneU float64
	// VirtualSeconds is recorded for the results file; it depends on
	// what the pool held, so ops are not held to it.
	VirtualSeconds float64
}

// rowSum is an order-insensitive checksum of a result set: the wrapping
// sum of each row's FNV-1a hash. Numbers are hashed through float64 so
// that rows fetched over HTTP (where JSON turns int64 into float64)
// agree with rows taken from DB.Exec.
func rowSum(rows [][]interface{}) uint64 {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		h := fnv.New64a()
		for _, v := range row {
			buf = buf[:0]
			switch x := v.(type) {
			case int64:
				buf = strconv.AppendFloat(buf, float64(x), 'g', -1, 64)
			case float64:
				buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
			case string:
				buf = strconv.AppendQuote(buf, x)
			default:
				buf = append(buf, fmt.Sprint(x)...)
			}
			buf = append(buf, 0)
			h.Write(buf)
		}
		sum += h.Sum64()
	}
	return sum
}

// reportCheck holds one op's progress stream to the indicator's
// contract as the reports arrive: DoneU never decreases, Percent never
// exceeds 100, and exactly one terminal report arrives, last.
type reportCheck struct {
	n         int
	lastDoneU float64
	finals    int
	lastFinal bool
	bad       string
}

func (c *reportCheck) see(doneU, percent float64, final bool) {
	c.n++
	if doneU < c.lastDoneU && c.bad == "" {
		c.bad = fmt.Sprintf("DoneU went back from %g to %g at report %d", c.lastDoneU, doneU, c.n)
	}
	if percent > 100+1e-9 && c.bad == "" {
		c.bad = fmt.Sprintf("Percent %g > 100 at report %d", percent, c.n)
	}
	c.lastDoneU = doneU
	c.lastFinal = final
	if final {
		c.finals++
	}
}

// verdict returns "" when the stream met the contract and ended on the
// reference's DoneU, else what went wrong.
func (c *reportCheck) verdict(ref *reference) string {
	switch {
	case c.bad != "":
		return c.bad
	case c.finals != 1:
		return fmt.Sprintf("%d terminal reports, want exactly 1", c.finals)
	case !c.lastFinal:
		return "terminal report was not the last"
	case ref == nil:
		return "no reference for this SQL"
	case c.lastDoneU != ref.DoneU:
		return fmt.Sprintf("terminal DoneU %v, reference %v", c.lastDoneU, ref.DoneU)
	}
	return ""
}

// estimate is one non-final report's remaining-time claim.
type estimate struct{ elapsed, remaining float64 }

// remainingErr scores an op's remaining-time estimates against what was
// really left, as a share of the op's virtual duration d: the mean of
// |remaining − (d − elapsed)| ÷ d over the reports that carried a finite
// estimate. NaN when there was none (a query shorter than one refresh
// period only ever sends its terminal report).
func remainingErr(pts []estimate, d float64) float64 {
	var sum float64
	n := 0
	for _, p := range pts {
		if math.IsNaN(p.remaining) || math.IsInf(p.remaining, 0) || p.remaining < 0 {
			continue // the wire encodes "unknown" as -1
		}
		sum += math.Abs(p.remaining-(d-p.elapsed)) / d
		n++
	}
	if n == 0 || d <= 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
