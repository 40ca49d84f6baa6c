package segment

// The counter block is one query's counts: what the executor's operators
// count as rows flow, in plain fields, with no call and no shared write
// per row. It lives in the Decomposition — each segment's Count, each
// input's Count and one node slot per plan node (NodeCounts) — so the
// executor and the progress indicator, which are both handed the
// Decomposition, count and read the same fields. The indicator reads it
// at its refreshes and its rare calls; the plan report and the metrics
// registry read the node slots when the query ends. A query runs on one
// goroutine, which alone writes and reads its block; exec.Run zeroes it
// (ResetCounts) before the plan opens, so one Decomposition can run again.
//
// Bytes are whole numbers, counted in int64: a sum of them converts to
// float64 exactly below 2^53, in whatever order it was added.

// SegCount counts what a segment emits: the tuples and bytes of its
// blocking root (WorkReporter.OutputTuple), and its multi-stage bytes
// (WorkReporter.Extra) with the adds that made them.
type SegCount struct {
	OutTuples, OutBytes int64
	ExtraBytes, Extras  int64
}

// InputCount counts the tuples read from one segment input on its first
// pass (WorkReporter.InputTuple and InputBulk) and their bytes, and the
// bytes of its later logical passes (WorkReporter.InputRepeat).
type InputCount struct {
	Tuples, Bytes, RepeatBytes int64
}

// NodeCount is one operator's slot: the rows it emitted to its parent,
// their encoded bytes (counted only while Sized: a per-query collector is
// attached), how often it was opened, and the ticks of its first open
// and its last close.
type NodeCount struct {
	Rows, Bytes  int64
	StartT, EndT int64
	Loops        int32
	// Open marks an operator opened and not yet closed.
	Sized, Open bool
}

// NodeCounts returns the plan's node slots, one per plan node, in plan
// pre-order: the executor's build hands a node its slot before its
// children theirs, in Children order. They are made on first use: a
// plan that is only priced never pays for them.
func (d *Decomposition) NodeCounts() []NodeCount {
	if d.nodes == nil {
		d.nodes = make([]NodeCount, len(d.NodeSeg))
	}
	return d.nodes
}

// ResetCounts zeroes the counter block in place, so pointers into it stay
// valid.
func (d *Decomposition) ResetCounts() {
	for _, s := range d.Segments {
		s.Count = SegCount{}
		for _, in := range s.Inputs {
			in.Count = InputCount{}
		}
	}
	clear(d.nodes)
}
