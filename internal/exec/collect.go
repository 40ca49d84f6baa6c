package exec

import (
	"fmt"

	"progressdb/internal/obs"
	"progressdb/internal/plan"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// Metrics are the executor's engine-wide instruments, shared by every
// query the engine runs. The zero value is the disabled state: all
// counters are nil and every increment is a nil-safe no-op, so the hot
// path pays only a nil check when observability is off.
type Metrics struct {
	reg *obs.Registry
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
		SpillPartitions: reg.Counter("exec_spill_partitions_total", "hash-join partition batch files spilled to disk"),
		SortRuns:        reg.Counter("exec_sort_runs_total", "sorted runs written to disk by external sorts"),
		MergePasses:     reg.Counter("exec_merge_passes_total", "intermediate sort merge passes beyond the final merge"),
	}
}

// Enabled reports whether the metrics are wired to a registry.
func (m Metrics) Enabled() bool { return m.reg != nil }

// RowsOut returns the engine-wide tuples-emitted counter for the given
// operator label (nil, and therefore a no-op, when metrics are disabled).
func (m Metrics) RowsOut(op string) *obs.Counter {
	return m.reg.LabeledCounter("exec_rows_out_total", "op", op, "tuples emitted, by operator")
}

// opName is the metrics label for a plan operator.
func opName(n plan.Node) string {
	switch node := n.(type) {
	case *plan.SeqScan:
		return "seqscan"
	case *plan.IndexScan:
		return "indexscan"
	case *plan.Filter:
		return "filter"
	case *plan.Project:
		return "project"
	case *plan.HashJoin:
		if node.Grace {
			return "gracehashjoin"
		}
		return "hashjoin"
	case *plan.Partition:
		return "partition"
	case *plan.NLJoin:
		return "nljoin"
	case *plan.MergeJoin:
		return "mergejoin"
	case *plan.SemiJoin:
		return "semijoin"
	case *plan.Sort:
		return "sort"
	case *plan.Materialize:
		return "materialize"
	case *plan.HashAgg:
		return "hashagg"
	case *plan.Limit:
		return "limit"
	default:
		return fmt.Sprintf("%T", n)
	}
}

// NodeStats are the actuals recorded for one plan operator during one
// query execution, feeding EXPLAIN ANALYZE and the per-query trace.
type NodeStats struct {
	// Node is the plan operator these stats describe.
	Node plan.Node
	// Rows and Bytes count tuples (and their encoded bytes) the operator
	// emitted to its parent.
	Rows  int64
	Bytes float64
	// Loops counts how many times the operator was opened.
	Loops int64
	// StartT and EndT are the virtual times of the first Open and the
	// last Close.
	StartT, EndT float64
	// Notes are free-form operator annotations (spills, batch counts,
	// run counts, merge passes).
	Notes []string
}

// Collector accumulates per-operator actuals for one query. A nil
// Collector is the disabled state: every method no-ops, mirroring the
// paper's statistics-collection flag.
type Collector struct {
	clock *vclock.Clock
	stats map[plan.Node]*NodeStats
	order []*NodeStats
}

// NewCollector returns an empty collector timestamping against clock.
func NewCollector(clock *vclock.Clock) *Collector {
	return &Collector{clock: clock, stats: make(map[plan.Node]*NodeStats)}
}

// Stats returns the stats record for n, creating it on first use.
// Returns nil on a nil collector.
func (c *Collector) Stats(n plan.Node) *NodeStats {
	if c == nil {
		return nil
	}
	st, ok := c.stats[n]
	if !ok {
		st = &NodeStats{Node: n}
		c.stats[n] = st
		c.order = append(c.order, st)
	}
	return st
}

// Get returns the stats record for n, or nil if none was collected.
func (c *Collector) Get(n plan.Node) *NodeStats {
	if c == nil {
		return nil
	}
	return c.stats[n]
}

// Notef appends a formatted annotation to n's record.
func (c *Collector) Notef(n plan.Node, format string, args ...any) {
	if c == nil {
		return
	}
	st := c.Stats(n)
	st.Notes = append(st.Notes, fmt.Sprintf(format, args...))
}

// All returns the collected records in first-touch order.
func (c *Collector) All() []*NodeStats {
	if c == nil {
		return nil
	}
	return c.order
}

// statsIter wraps an operator's iterator with actuals collection: rows
// and bytes out, open/close virtual times, and the engine-wide
// per-operator rows counter. Build inserts it only when collection or
// metrics are enabled, so the disabled path keeps direct iterator calls.
type statsIter struct {
	inner Iterator
	env   *Env
	st    *NodeStats   // nil when per-query collection is off
	rows  *obs.Counter // nil when engine metrics are off
	sizer rowSizer     // inner, when it knows its row's size better than the row does
	last  int          // bytes of the row last emitted (collection on only)
}

// rowSizer is implemented by operators whose output tuple may be a
// column-pruned scan slot: the encoded size of the row it stands for is
// the size of the record it was decoded from, not of the slot.
type rowSizer interface {
	lastRowBytes() int
}

func (s *statsIter) lastRowBytes() int { return s.last }

func (s *statsIter) Open() error {
	if s.st != nil {
		if s.st.Loops == 0 {
			s.st.StartT = s.env.Clock.Now()
		}
		s.st.Loops++
	}
	return s.inner.Open()
}

func (s *statsIter) Next() (tuple.Tuple, bool, error) {
	t, ok, err := s.inner.Next()
	if ok {
		s.rows.Inc()
		if s.st != nil {
			if s.sizer != nil {
				s.last = s.sizer.lastRowBytes()
			} else {
				s.last = t.EncodedSize()
			}
			s.st.Rows++
			s.st.Bytes += float64(s.last)
		}
	}
	return t, ok, err
}

func (s *statsIter) Close() error {
	if s.st != nil {
		s.st.EndT = s.env.Clock.Now()
	}
	return s.inner.Close()
}
