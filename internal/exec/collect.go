package exec

import (
	"fmt"
	"sync/atomic"

	"progressdb/internal/obs"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// Metrics are the executor's engine-wide instruments, shared by every
// query the engine runs. The zero value is the disabled state: all
// counters are nil and every increment is a nil-safe no-op, so the hot
// path pays only a nil check when observability is off.
//
// Nothing shared is written per tuple: operators count their rows in the
// query's counter block (segment/counts.go), and Run adds each operator's
// rows to exec_rows_out_total once, when the query returns. Every
// worker's operators would otherwise contend for the same cache lines on
// every row.
type Metrics struct {
	reg *obs.Registry
	// rowsOut is exec_rows_out_total by operator kind, each series
	// registered the first time the engine runs an operator of its kind:
	// a scrape lists the kinds that ran, and no query looks one up twice.
	rowsOut *[numOps]atomic.Pointer[obs.Counter]
	// SpillPartitions counts partition batch files created by hash joins
	// (hybrid spill batches and Grace partition batches).
	SpillPartitions *obs.Counter
	// SortRuns counts sorted runs written to disk by external sorts.
	SortRuns *obs.Counter
	// MergePasses counts intermediate merge passes (beyond the final
	// merge) performed by external sorts.
	MergePasses *obs.Counter
}

// NewMetrics registers the executor's instruments in reg. A nil registry
// yields the zero (disabled) Metrics.
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		reg:             reg,
		rowsOut:         new([numOps]atomic.Pointer[obs.Counter]),
		SpillPartitions: reg.Counter("exec_spill_partitions_total", "hash-join partition batch files spilled to disk"),
		SortRuns:        reg.Counter("exec_sort_runs_total", "sorted runs written to disk by external sorts"),
		MergePasses:     reg.Counter("exec_merge_passes_total", "intermediate sort merge passes beyond the final merge"),
	}
}

// Enabled reports whether the metrics are wired to a registry.
func (m Metrics) Enabled() bool { return m.reg != nil }

// addRowsOut adds n rows emitted by operators of kind op. The registry
// dedupes a series, so two queries that resolve one at once store the
// same counter.
func (m Metrics) addRowsOut(op Op, n int64) {
	c := m.rowsOut[op].Load()
	if c == nil {
		c = m.reg.LabeledCounter("exec_rows_out_total", "op", opNames[op], "tuples emitted, by operator")
		m.rowsOut[op].Store(c)
	}
	c.Add(n)
}

// opNames are the operator kinds' metrics labels, indexed by opKind.
var opNames = [numOps]string{
	"seqscan", "indexscan", "filter", "project", "hashjoin", "gracehashjoin", "partition",
	"nljoin", "mergejoin", "semijoin", "sort", "materialize", "hashagg", "limit",
}

const numOps = 14

// opKind is the index of a plan operator's kind in opNames. Build
// rejects any other node before it has a slot.
func opKind(n plan.Node) Op {
	switch node := n.(type) {
	case *plan.SeqScan:
		return 0
	case *plan.IndexScan:
		return 1
	case *plan.Filter:
		return 2
	case *plan.Project:
		return 3
	case *plan.HashJoin:
		if node.Grace {
			return 5
		}
		return 4
	case *plan.Partition:
		return 6
	case *plan.NLJoin:
		return 7
	case *plan.MergeJoin:
		return 8
	case *plan.SemiJoin:
		return 9
	case *plan.Sort:
		return 10
	case *plan.Materialize:
		return 11
	case *plan.HashAgg:
		return 12
	default: // *plan.Limit
		return 13
	}
}

// Op is an operator's kind. It marshals as its name, the op label of
// exec_rows_out_total.
type Op uint8

func (o Op) String() string { return opNames[o] }

// MarshalText writes o as its name, so a plan report's JSON names it.
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText reads a name MarshalText wrote.
func (o *Op) UnmarshalText(b []byte) error {
	for i, name := range opNames {
		if string(b) == name {
			*o = Op(i)
			return nil
		}
	}
	return fmt.Errorf("exec: unknown operator kind %q", b)
}

// OperatorReport is one operator of a query's plan report. The build
// fills its kind, depth, segment and estimate into Env.Ops at the
// operator's slot index, in plan pre-order; the rest is read off the
// slot once the query has run. Every successful query keeps one per
// operator, so what only EXPLAIN ANALYZE knows hangs off a pointer.
type OperatorReport struct {
	// Op is the operator's kind.
	Op Op `json:"op"`
	// Depth is the operator's depth in the plan, 0 at the root, and
	// Segment the segment whose pipeline does its work.
	Depth   int32 `json:"depth"`
	Segment int32 `json:"segment"`
	// Loops is how often the operator was opened.
	Loops int32 `json:"loops"`
	// EstRows and EstWidth are the optimizer's output estimate, Rows the
	// rows the operator emitted, and QError the estimate's error factor
	// (core.QError: -1 unless both rows are positive).
	EstRows  float64 `json:"est_rows"`
	EstWidth float64 `json:"est_width"`
	Rows     int64   `json:"rows"`
	QError   float64 `json:"q_error"`
	// StartT and EndT are the operator's first open and last close, in
	// seconds since the query started (both zero if it never opened).
	StartT float64 `json:"start_seconds"`
	EndT   float64 `json:"end_seconds"`
	// OperatorDetail is set only when a Collector ran (EXPLAIN ANALYZE);
	// its fields then read as the report's own, in Go and in JSON.
	*OperatorDetail
}

// OperatorDetail is what a Collector adds to an operator's report.
type OperatorDetail struct {
	// Label is the operator's plan label.
	Label string `json:"label"`
	// U is the emitted rows' bytes, in U.
	U float64 `json:"u"`
	// Notes are the operator's annotations: spills, batch counts, run
	// counts, merge passes, key layouts.
	Notes []string `json:"notes,omitempty"`
}

// Collector is what EXPLAIN ANALYZE adds to a query's node slots: while
// one is attached, operators size the rows they emit, and it keeps their
// free-form notes (spills, batch counts, run counts, merge passes). A
// nil Collector is the disabled state: Notef no-ops, mirroring the
// paper's statistics-collection flag.
type Collector struct {
	notes map[plan.Node][]string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{notes: make(map[plan.Node][]string)}
}

// Notef appends a formatted annotation to n's notes.
func (c *Collector) Notef(n plan.Node, format string, args ...any) {
	if c == nil {
		return
	}
	c.notes[n] = append(c.notes[n], fmt.Sprintf(format, args...))
}

// Notes returns n's annotations, in the order they were made.
func (c *Collector) Notes(n plan.Node) []string {
	if c == nil {
		return nil
	}
	return c.notes[n]
}

// counter is an operator's slot in the query's counter block: it counts
// the rows the operator emits, their bytes only while a Collector is
// attached, and its opens and closes. Every operator embeds one.
type counter struct{ cnt *segment.NodeCount }

// emit counts one row t handed to the parent.
func (c counter) emit(t tuple.Tuple) {
	c.cnt.Rows++
	if c.cnt.Sized {
		c.cnt.Bytes += int64(t.EncodedSize())
	}
}

// emitBytes counts one row of the given encoded size handed to the
// parent.
func (c counter) emitBytes(n int) {
	c.cnt.Rows++
	if c.cnt.Sized {
		c.cnt.Bytes += int64(n)
	}
}

// emitPair counts one row of join o handed to the parent, sized as the
// whole pair it was written from.
func (c counter) emitPair(o *joinOut) {
	c.cnt.Rows++
	if c.cnt.Sized {
		c.sizePair(o)
	}
}

// sizePair is emitPair's collector path, kept out of line so that
// emitPair inlines.
//
//go:noinline
func (c counter) sizePair(o *joinOut) {
	c.cnt.Bytes += int64(o.l.EncodedSize() + o.r.EncodedSize())
}

// opened records an Open, before the operator does its own.
func (c counter) opened(clk *vclock.Clock) {
	if c.cnt.Loops == 0 {
		c.cnt.StartT = clk.Ticks()
	}
	c.cnt.Loops++
	c.cnt.Open = true
}

// closed records a Close, before the operator does its own; a repeated
// Close leaves EndT alone.
func (c counter) closed(clk *vclock.Clock) {
	if c.cnt.Open {
		c.cnt.EndT = clk.Ticks()
		c.cnt.Open = false
	}
}
