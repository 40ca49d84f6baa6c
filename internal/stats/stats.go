// Package stats implements the statistics-collection program ("before we
// ran queries, we ran the PostgreSQL statistics collection program on all
// the five relations") and the selectivity estimator whose systematic
// errors drive the paper's experiments.
//
// The estimator intentionally reproduces the PostgreSQL 7.3 behaviours the
// paper leans on:
//
//   - a predicate containing any function call (absolute(l.partkey) > 0)
//     gets the default selectivity 1/3 (DefaultFuncSel), even though the
//     true selectivity may be 1 — the source of the Q2/Q4 cost errors;
//   - join selectivity assumes independence and uniformity
//     (1/max(NDV_l, NDV_r)) — the source of the Q3 correlation error.
package stats

import (
	"fmt"
	"math"
	"sort"

	"progressdb/internal/expr"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Default selectivities, matching PostgreSQL's historical constants where
// the paper depends on them.
const (
	// DefaultFuncSel is used for any predicate over a function result.
	DefaultFuncSel = 1.0 / 3.0
	// DefaultIneqSel is used for range predicates with no usable stats.
	DefaultIneqSel = 1.0 / 3.0
	// DefaultEqSel is used for equality predicates with no usable stats.
	DefaultEqSel = 0.005
)

// HistogramBuckets is the number of equi-depth buckets collected per
// numeric column.
const HistogramBuckets = 100

// Histogram is an equi-depth histogram over a numeric column: Bounds has
// B+1 entries; bucket i covers [Bounds[i], Bounds[i+1]] and holds ~1/B of
// the rows.
type Histogram struct {
	Bounds []float64
}

// NewHistogram builds an equi-depth histogram from a sample of values.
func NewHistogram(sample []float64, buckets int) *Histogram {
	if len(sample) == 0 || buckets < 1 {
		return nil
	}
	sort.Float64s(sample)
	if buckets > len(sample) {
		buckets = len(sample)
	}
	bounds := make([]float64, 0, buckets+1)
	for i := 0; i <= buckets; i++ {
		idx := i * (len(sample) - 1) / buckets
		bounds = append(bounds, sample[idx])
	}
	return &Histogram{Bounds: bounds}
}

// FracBelow estimates the fraction of rows with value < x.
func (h *Histogram) FracBelow(x float64) float64 {
	if h == nil || len(h.Bounds) < 2 {
		return DefaultIneqSel
	}
	b := len(h.Bounds) - 1
	if x <= h.Bounds[0] {
		return 0
	}
	if x >= h.Bounds[b] {
		return 1
	}
	// Find bucket containing x and interpolate within it.
	i := sort.SearchFloat64s(h.Bounds, x) - 1
	if i < 0 {
		i = 0
	}
	lo, hi := h.Bounds[i], h.Bounds[i+1]
	frac := float64(i) / float64(b)
	if hi > lo {
		// Guard the interpolation against float overflow (hi-lo may be
		// +Inf for extreme bounds, making the ratio NaN).
		t := (x - lo) / (hi - lo)
		if math.IsNaN(t) || math.IsInf(t, 0) {
			t = 0.5
		}
		frac += math.Min(1, math.Max(0, t)) / float64(b)
	}
	return math.Min(1, math.Max(0, frac))
}

// ColStats holds per-column statistics.
type ColStats struct {
	// NDV is the estimated number of distinct values.
	NDV int64
	// Min and Max are observed bounds (numeric columns only).
	Min, Max float64
	// Numeric reports whether Min/Max/Hist are meaningful.
	Numeric bool
	// Hist is an equi-depth histogram (numeric columns only).
	Hist *Histogram
	// AvgWidth is the average encoded size of this column's values in
	// bytes; the optimizer sums these to estimate projection widths.
	AvgWidth float64
}

// TableStats holds per-table statistics, as produced by Analyze.
type TableStats struct {
	// RowCount is the exact number of rows at analyze time.
	RowCount int64
	// AvgWidth is the average encoded tuple size in bytes.
	AvgWidth float64
	// Pages is the heap file size in pages.
	Pages int
	// Cols maps lower-cased column name to its stats.
	Cols map[string]*ColStats
}

// TotalBytes returns the estimated total relation size in bytes.
func (ts *TableStats) TotalBytes() float64 {
	return float64(ts.RowCount) * ts.AvgWidth
}

// Col returns stats for the named column, or nil.
func (ts *TableStats) Col(name string) *ColStats {
	if ts == nil {
		return nil
	}
	return ts.Cols[lower(name)]
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Analyze scans a heap file and computes table statistics: exact row count
// and average width, and per-column NDV, min/max, and an equi-depth
// histogram from a bounded reservoir sample. It mirrors running the
// statistics collector before the experiments, as the paper does.
//
// Analyze charges the clock for its I/O like any scan; run it before
// starting the measured query (the paper collects statistics ahead of
// time).
func Analyze(hf *storage.HeapFile, schema *tuple.Schema) (*TableStats, error) {
	const sampleCap = 30000
	ts := &TableStats{Cols: make(map[string]*ColStats, schema.Arity())}
	type colAcc struct {
		// Distinct values, one set per kind: a word or a string hashed per
		// value instead of a whole Value. Kinds never compare equal, so
		// NDV is the three sizes added (NaNs stay distinct, ±0 one).
		ints     map[int64]struct{}
		floats   map[float64]struct{}
		strs     map[string]struct{}
		sample   []float64
		min, max float64
		numeric  bool
		seen     int64
		widthSum int64
	}
	accs := make([]*colAcc, schema.Arity())
	for i, c := range schema.Cols {
		accs[i] = &colAcc{
			ints:    make(map[int64]struct{}),
			floats:  make(map[float64]struct{}),
			strs:    make(map[string]struct{}),
			numeric: c.Type == tuple.Int || c.Type == tuple.Float,
			min:     math.Inf(1),
			max:     math.Inf(-1),
		}
	}
	var widthSum int64
	sc := hf.NewScanner()
	// Deterministic "random" for reservoir sampling: a simple LCG keyed by
	// row number keeps Analyze reproducible without math/rand state.
	lcg := uint64(88172645463325252)
	nextRand := func(n int64) int64 {
		lcg ^= lcg << 13
		lcg ^= lcg >> 7
		lcg ^= lcg << 17
		return int64(lcg % uint64(n))
	}
	var row tuple.Tuple // one slot, decoded into per record
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		var err error
		row, err = tuple.DecodeInto(row, rec, schema.Arity(), nil)
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		ts.RowCount++
		widthSum += int64(row.EncodedSize())
		for i, v := range row {
			a := accs[i]
			a.seen++
			a.widthSum += int64(valueWidth(v))
			switch v.Kind {
			case tuple.Int:
				a.ints[v.I] = struct{}{}
			case tuple.Float:
				a.floats[v.F] = struct{}{}
			default:
				a.strs[v.S] = struct{}{}
			}
			if a.numeric {
				f := v.AsFloat()
				if f < a.min {
					a.min = f
				}
				if f > a.max {
					a.max = f
				}
				if len(a.sample) < sampleCap {
					a.sample = append(a.sample, f)
				} else if j := nextRand(a.seen); j < sampleCap {
					a.sample[j] = f
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ts.RowCount > 0 {
		ts.AvgWidth = float64(widthSum) / float64(ts.RowCount)
	}
	ts.Pages = hf.NumPages()
	for i, c := range schema.Cols {
		a := accs[i]
		cs := &ColStats{NDV: int64(len(a.ints) + len(a.floats) + len(a.strs)), Numeric: a.numeric}
		if a.seen > 0 {
			cs.AvgWidth = float64(a.widthSum) / float64(a.seen)
		}
		if a.numeric && a.seen > 0 {
			cs.Min, cs.Max = a.min, a.max
			cs.Hist = NewHistogram(a.sample, HistogramBuckets)
		}
		ts.Cols[lower(c.Name)] = cs
	}
	return ts, nil
}

// valueWidth is the encoded size of one value (see tuple.EncodedSize).
func valueWidth(v tuple.Value) int {
	if v.Kind == tuple.String {
		return 5 + len(v.S)
	}
	return 9
}

// PredicateSelectivity estimates the fraction of rows of a single table
// that satisfy conjunct e. Column indexes in e refer to schema positions.
func PredicateSelectivity(e expr.Expr, schema *tuple.Schema, ts *TableStats) float64 {
	// Conjunctions multiply under the independence assumption.
	if a, ok := e.(*expr.And); ok {
		sel := 1.0
		for _, t := range a.Terms {
			sel *= PredicateSelectivity(t, schema, ts)
		}
		return sel
	}
	// PostgreSQL-style: any function call defeats estimation.
	if expr.ContainsFunc(e) {
		return DefaultFuncSel
	}
	c, ok := e.(*expr.Cmp)
	if !ok {
		return DefaultIneqSel
	}
	col, cnst, op, ok := colConstCmp(c)
	if !ok {
		return DefaultIneqSel
	}
	var cs *ColStats
	if col.Index >= 0 && col.Index < schema.Arity() {
		cs = ts.Col(schema.Cols[col.Index].Name)
	}
	switch op {
	case expr.EQ:
		if cs != nil && cs.NDV > 0 {
			return 1 / float64(cs.NDV)
		}
		return DefaultEqSel
	case expr.NE:
		if cs != nil && cs.NDV > 0 {
			return 1 - 1/float64(cs.NDV)
		}
		return 1 - DefaultEqSel
	case expr.LT, expr.LE:
		if cs != nil && cs.Numeric {
			return rangeSel(cs, cnst.AsFloat(), true)
		}
		return DefaultIneqSel
	case expr.GT, expr.GE:
		if cs != nil && cs.Numeric {
			return rangeSel(cs, cnst.AsFloat(), false)
		}
		return DefaultIneqSel
	default:
		return DefaultIneqSel
	}
}

// rangeSel estimates P(col < x) (below=true) or P(col > x) from histogram
// or min/max interpolation.
func rangeSel(cs *ColStats, x float64, below bool) float64 {
	var frac float64
	switch {
	case cs.Hist != nil:
		frac = cs.Hist.FracBelow(x)
	case cs.Max > cs.Min:
		frac = math.Min(1, math.Max(0, (x-cs.Min)/(cs.Max-cs.Min)))
	default:
		frac = DefaultIneqSel
	}
	if below {
		return clampSel(frac)
	}
	return clampSel(1 - frac)
}

func clampSel(s float64) float64 {
	return math.Min(1, math.Max(0, s))
}

// colConstCmp matches e as (column op constant) or (constant op column),
// normalizing so the column is on the left.
func colConstCmp(c *expr.Cmp) (*expr.ColRef, tuple.Value, expr.CmpOp, bool) {
	if col, ok := c.L.(*expr.ColRef); ok {
		if k, ok2 := c.R.(*expr.Const); ok2 {
			return col, k.V, c.Op, true
		}
	}
	if col, ok := c.R.(*expr.ColRef); ok {
		if k, ok2 := c.L.(*expr.Const); ok2 {
			return col, k.V, flipOp(c.Op), true
		}
	}
	return nil, tuple.Value{}, 0, false
}

func flipOp(op expr.CmpOp) expr.CmpOp {
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

// JoinSelectivity estimates the selectivity of a join predicate between
// two relations. For an equijoin it is 1/max(NDV_l, NDV_r) under the
// uniformity and containment assumptions — the estimate that Q3's
// correlated data violates. For <> it is the complement; other operators
// get the range default.
func JoinSelectivity(op expr.CmpOp, left, right *ColStats) float64 {
	maxNDV := int64(0)
	if left != nil && left.NDV > maxNDV {
		maxNDV = left.NDV
	}
	if right != nil && right.NDV > maxNDV {
		maxNDV = right.NDV
	}
	eq := DefaultEqSel
	if maxNDV > 0 {
		eq = 1 / float64(maxNDV)
	}
	switch op {
	case expr.EQ:
		return eq
	case expr.NE:
		return 1 - eq
	default:
		return DefaultIneqSel
	}
}
