// Package segment implements the paper's central abstraction (Section
// 4.2): dividing a physical plan into pipelined segments bounded by
// blocking operators, identifying each segment's inputs and dominant
// input(s), and costing segments in U (bytes processed at segment
// boundaries).
//
// The cost evaluation here is "the optimizer's cost estimation module"
// that the progress indicator re-invokes with refined input estimates
// (Section 4.5): given (cardinality, width) estimates for every segment
// input, EvalSegment returns the segment's output estimate and its cost.
package segment

import (
	"fmt"
	"math"
	"strings"

	"progressdb/internal/catalog"
	"progressdb/internal/plan"
	"progressdb/internal/storage"
)

// WorkReporter receives the executor's boundary-byte events. The paper
// embeds statistics collection inside operator code guarded by a flag;
// passing a nil reporter is the flag turned off.
type WorkReporter interface {
	// InputTuple records one first-pass tuple read from a segment input.
	InputTuple(seg, input int, bytes int)
	// InputBulk records a first-pass bulk read from a segment input
	// (e.g. the in-memory hash table consumed at probe start).
	InputBulk(seg, input int, tuples int64, bytes float64)
	// InputRepeat records an additional logical pass over data already
	// counted for this input (a nested-loops inner replay). It counts as
	// work done but not toward the input's cardinality estimate.
	InputRepeat(seg, input int, tuples int64, bytes float64)
	// InputDone marks an input fully read once: its cardinality and size
	// are exact from now on (the paper's Section 4.3 "after finishing
	// the scan" case).
	InputDone(seg, input int)
	// OutputTuple records one tuple emitted at a segment's blocking root.
	OutputTuple(seg int, bytes int)
	// Extra records multi-stage bytes (hash-join probe spill traffic,
	// intermediate sort merge passes) attributed to a segment.
	Extra(seg int, bytes float64)
	// SegmentDone marks a segment finished; its output statistics are
	// exact from this point on.
	SegmentDone(seg int)
}

// Est is a (cardinality, average width) estimate: the optimizer's own
// type, so a plan node's estimate is a segment input's without conversion.
type Est = plan.Est

// Input is one input of a segment: either a base relation access or the
// output of a lower-level segment.
type Input struct {
	// Node is the plan node at the boundary: a scan (base) or the
	// blocking producer (Sort, Materialize, or a HashJoin's build child).
	Node plan.Node
	// Base reports whether this is a base-relation input.
	Base bool
	// Table is the base relation (Base only).
	Table *catalog.Table
	// Child is the producing segment (non-base only).
	Child *Segment
	// Init is the optimizer's initial estimate for this input.
	Init Est
}

// Kind classifies a segment by its blocking root, which determines
// whether its output is materialized to disk (partitions, sorted runs)
// or handled in memory (hash tables, materialize buffers) — the
// distinction behind per-segment speed prediction (Section 4.6's
// suggested refinement).
type Kind int

const (
	// KindFinal is the last segment; its output goes to the user.
	KindFinal Kind = iota
	// KindHashBuild ends at an in-memory hash-table build.
	KindHashBuild
	// KindPartition ends at a hash partitioning to disk.
	KindPartition
	// KindSort ends at sorted-run formation on disk.
	KindSort
	// KindMaterialize ends at an in-memory materialization.
	KindMaterialize
	// KindAggregate ends at a hash aggregation.
	KindAggregate
)

// Segment is one pipelined piece of the plan.
type Segment struct {
	// ID is the segment's index in execution order.
	ID int
	// Kind classifies the segment's blocking root.
	Kind Kind
	// Root is the top plan node whose processing belongs to this
	// segment: the Sort/Materialize producer, a HashJoin's build subtree
	// root, or the query root for the final segment.
	Root plan.Node
	// Inputs are the segment's inputs, in discovery order.
	Inputs []*Input
	// Dominant lists the indexes of the dominant input(s): one for most
	// segments, two for a segment whose lowest join is a sort-merge join
	// (Section 4.5).
	Dominant []int
	// Final marks the last segment; its output is the query result and
	// is not counted in U (Section 4.4).
	Final bool
	// InitOut is the optimizer's initial output estimate.
	InitOut Est
	// InitCost is the initial segment cost in bytes.
	InitCost float64

	inputByNode map[plan.Node]int
}

// NodeInfo tells the executor how to tag a node's boundary events.
type NodeInfo struct {
	// Seg is the segment whose pipeline processes this node's output.
	Seg int
	// Input is the input slot within Seg (scans and boundary reads).
	Input int
	// ProducerSeg is the segment that ends at this node (blocking
	// operators and hash-join builds); -1 otherwise.
	ProducerSeg int
}

// Decomposition is the segment view of one plan.
type Decomposition struct {
	// Segments in execution order (lower segments before consumers).
	Segments []*Segment
	// Info maps boundary-relevant plan nodes to their tags.
	Info map[plan.Node]NodeInfo
	// NodeSeg maps every plan node to the segment whose pipeline performs
	// its work: blocking producers (Sort, Materialize, Partition, HashAgg)
	// map to the producer segment they terminate; everything else maps to
	// the consuming segment. Used by tracing and EXPLAIN ANALYZE to nest
	// operator spans under segment spans.
	NodeSeg map[plan.Node]int
	// WorkMemBytes is the memory budget used for spill/merge cost terms.
	WorkMemBytes float64

	// segIDByOld maps creation-order segment IDs to execution-order IDs.
	segIDByOld map[int]int
}

// Decompose splits a plan into segments and computes initial estimates.
// workMemPages is the executor's per-operator memory budget.
func Decompose(root plan.Node, workMemPages int) *Decomposition {
	d := &Decomposition{
		Info:         make(map[plan.Node]NodeInfo),
		NodeSeg:      make(map[plan.Node]int),
		WorkMemBytes: float64(workMemPages) * storage.PageSize,
	}
	final := d.newSegment(root, true, KindFinal)
	d.attach(root, final)
	// Execution order: segments were created consumer-first by the
	// recursion; reverse creation order is not quite execution order —
	// instead order by a DFS that mirrors the executor: producers run
	// when their consumer opens. Compute by post-order over the segment
	// DAG from the final segment.
	ordered := make([]*Segment, 0, len(d.Segments))
	seen := make(map[*Segment]bool)
	var visit func(s *Segment)
	visit = func(s *Segment) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, in := range s.Inputs {
			if in.Child != nil {
				visit(in.Child)
			}
		}
		ordered = append(ordered, s)
	}
	visit(final)
	for i, s := range ordered {
		d.segIDByOld[s.ID] = i
	}
	for i, s := range ordered {
		s.ID = i
	}
	// Re-tag Info and NodeSeg with final IDs.
	for n, info := range d.Info {
		info.Seg = d.segIDByOld[info.Seg]
		if info.ProducerSeg >= 0 {
			info.ProducerSeg = d.segIDByOld[info.ProducerSeg]
		}
		d.Info[n] = info
	}
	for n, id := range d.NodeSeg {
		d.NodeSeg[n] = d.segIDByOld[id]
	}
	d.Segments = ordered

	for _, s := range d.Segments {
		s.Dominant = dominantInputs(s)
		ests := make([]Est, len(s.Inputs))
		for i, in := range s.Inputs {
			ests[i] = in.Init
		}
		out, cost := d.EvalSegment(s, ests)
		s.InitOut = out
		s.InitCost = cost
	}
	return d
}

func (d *Decomposition) newSegment(root plan.Node, final bool, kind Kind) *Segment {
	s := &Segment{
		ID:          len(d.Segments),
		Kind:        kind,
		Root:        root,
		Final:       final,
		inputByNode: make(map[plan.Node]int),
	}
	d.Segments = append(d.Segments, s)
	if d.segIDByOld == nil {
		d.segIDByOld = map[int]int{}
	}
	return s
}

func (d *Decomposition) addBaseInput(s *Segment, n plan.Node, tbl *catalog.Table) int {
	idx := len(s.Inputs)
	s.Inputs = append(s.Inputs, &Input{
		Node:  n,
		Base:  true,
		Table: tbl,
		Init:  n.Est(),
	})
	s.inputByNode[n] = idx
	return idx
}

func (d *Decomposition) addSegInput(s *Segment, n plan.Node, child *Segment, est Est) int {
	idx := len(s.Inputs)
	s.Inputs = append(s.Inputs, &Input{Node: n, Child: child, Init: est})
	s.inputByNode[n] = idx
	return idx
}

// blockingBoundary returns, for a single-child blocking operator, the
// kind of the producer segment it ends and the child that segment runs.
func blockingBoundary(n plan.Node) (Kind, plan.Node) {
	switch node := n.(type) {
	case *plan.Partition:
		return KindPartition, node.Child
	case *plan.Sort:
		return KindSort, node.Child
	case *plan.Materialize:
		return KindMaterialize, node.Child
	case *plan.HashAgg:
		return KindAggregate, node.Child
	}
	//lint:ignore errwrap sanctioned: callers switch on these four types first; recovered at the DB.Exec boundary
	panic(fmt.Sprintf("segment: %T is not a blocking boundary", n))
}

// attach assigns node's output processing to segment s, recursing into
// children and creating producer segments at blocking boundaries.
func (d *Decomposition) attach(n plan.Node, s *Segment) {
	// Default: the node's work happens in the consuming segment's
	// pipeline. Blocking cases below override with their producer segment.
	d.NodeSeg[n] = s.ID
	switch node := n.(type) {
	case *plan.SeqScan:
		idx := d.addBaseInput(s, node, node.Table)
		d.Info[node] = NodeInfo{Seg: s.ID, Input: idx, ProducerSeg: -1}
	case *plan.IndexScan:
		idx := d.addBaseInput(s, node, node.Table)
		d.Info[node] = NodeInfo{Seg: s.ID, Input: idx, ProducerSeg: -1}
	case *plan.Filter:
		d.attach(node.Child, s)
	case *plan.Project:
		d.attach(node.Child, s)
	case *plan.HashJoin:
		if node.Grace {
			// Both partition sets are inputs of the join's segment
			// (Figure 3: S3 reads PA and PB). The Partition children
			// register themselves as boundary inputs.
			d.attach(node.Build, s)
			d.attach(node.Probe, s)
			return
		}
		// In-memory hybrid: the build child plus the hash-table build
		// form a producer segment; the hash table is an input of s; the
		// probe side pipelines within s.
		p := d.newSegment(node.Build, false, KindHashBuild)
		d.attach(node.Build, p)
		idx := d.addSegInput(s, node, p, node.Build.Est())
		d.Info[node] = NodeInfo{Seg: s.ID, Input: idx, ProducerSeg: p.ID}
		d.attach(node.Probe, s)
	case *plan.Partition, *plan.Sort, *plan.Materialize, *plan.HashAgg:
		// The operator and everything below it form a producer segment
		// whose output is an input of s.
		kind, child := blockingBoundary(n)
		p := d.newSegment(n, false, kind)
		d.NodeSeg[n] = p.ID
		d.attach(child, p)
		idx := d.addSegInput(s, n, p, n.Est())
		d.Info[n] = NodeInfo{Seg: s.ID, Input: idx, ProducerSeg: p.ID}
	case *plan.Limit:
		d.attach(node.Child, s)
	case *plan.NLJoin:
		d.attach(node.Outer, s)
		d.attach(node.Inner, s)
	case *plan.SemiJoin:
		// The inner (subquery) side is consumed fully into a match set —
		// a blocking boundary, so it forms its own segment whose output
		// is an input of s; the outer pipelines within s.
		p := d.newSegment(node.Inner, false, KindHashBuild)
		d.attach(node.Inner, p)
		idx := d.addSegInput(s, node, p, node.Inner.Est())
		d.Info[node] = NodeInfo{Seg: s.ID, Input: idx, ProducerSeg: p.ID}
		d.attach(node.Outer, s)
	case *plan.MergeJoin:
		d.attach(node.Left, s)
		d.attach(node.Right, s)
	default:
		//lint:ignore errwrap sanctioned: plan-shape invariant checked at decomposition time; recovered at the DB.Exec boundary as *exec.InternalError
		panic(fmt.Sprintf("segment: unknown plan node %T", n))
	}
}

// dominantInputs applies the paper's Section 4.5 rules: descend from the
// segment's root through the pipelined side of each join; the join at the
// lowest level decides. NL join → outer side; hash join → probe side;
// merge join → both inputs.
func dominantInputs(s *Segment) []int {
	var at plan.Node = s.Root
	for {
		switch node := at.(type) {
		case *plan.SeqScan, *plan.IndexScan:
			if idx, ok := s.inputByNode[at]; ok {
				return []int{idx}
			}
			//lint:ignore errwrap sanctioned: decomposition invariant (every scan is a segment input); recovered at the DB.Exec boundary
			panic("segment: scan not registered as segment input")
		case *plan.Filter:
			at = node.Child
		case *plan.Project:
			at = node.Child
		case *plan.Partition, *plan.Sort, *plan.Materialize, *plan.HashAgg:
			// Registered: a boundary read from a lower segment. Not
			// registered: this segment's own producer root.
			if idx, ok := s.inputByNode[at]; ok {
				return []int{idx}
			}
			_, at = blockingBoundary(at)
		case *plan.Limit:
			at = node.Child
		case *plan.HashJoin:
			// The hash join itself marks the build input boundary; the
			// dominant side is the probe pipeline (Section 4.5 rule 2b).
			at = node.Probe
		case *plan.NLJoin:
			// Rule 2a: the outer relation dominates.
			at = node.Outer
		case *plan.SemiJoin:
			// Like a hash join's probe: the outer side dominates.
			at = node.Outer
		case *plan.MergeJoin:
			// Rule 2c: both inputs dominate.
			l, lok := s.inputByNode[node.Left]
			r, rok := s.inputByNode[node.Right]
			if lok && rok {
				return []int{l, r}
			}
			at = node.Left
		default:
			//lint:ignore errwrap sanctioned: dominant-input walk only sees nodes the decomposer placed; recovered at the DB.Exec boundary
			panic(fmt.Sprintf("segment: dominant-input walk hit unexpected node %T", at))
		}
	}
}

// The three U terms below are everything a plan costs beyond reading
// its base inputs once. EvalSegment charges them when the indicator
// re-costs a segment; internal/optimizer prices every candidate plan as a
// sum of the same calls, so a plan is chosen by the arithmetic that later
// tracks it (closure_test.go in the optimizer pins the two totals equal).

// BoundaryBytes is the U a blocking boundary adds for the bytes crossing
// it (a hash table, a partition set, sorted runs, a materialize buffer, a
// semi-join's match set): they count twice, once as the producer
// segment's output and once as the consumer segment's input — the paper's
// double counting (Section 4.4). EvalSegment charges the halves apart,
// the output where a non-final segment ends and the input where its
// consumer reads it.
func BoundaryBytes(bytes float64) float64 { return 2 * bytes }

// SortMergeBytes is the U of an external sort's intermediate merge
// passes over bytes of input: runs of one work_mem each are merged
// fanin = max(2, pages−1) at a time, and every pass beyond the final one
// (which streams to the consumer) writes and reads the data once more.
// Zero when the input fits or merges in one pass. For a whole number of
// pages workMemBytes/PageSize − 1 is float64(pages − 1) exactly, so
// callers holding a page count and callers holding bytes agree.
func SortMergeBytes(bytes, workMemBytes float64) float64 {
	if bytes > workMemBytes && workMemBytes > 0 {
		runs := math.Ceil(bytes / workMemBytes)
		fanin := math.Max(2, workMemBytes/storage.PageSize-1)
		if passes := math.Ceil(math.Log(runs) / math.Log(fanin)); passes > 1 {
			return (passes - 1) * 2 * bytes
		}
	}
	return 0
}

// RescanBytes is the U of a nested-loops rescan: the cached inner
// (innerBytes) is logically re-read once per outer tuple after the
// first. max(1, card) − 1 and max(0, card − 1) are the same float for
// every non-negative cardinality.
func RescanBytes(outerCard, innerBytes float64) float64 {
	return (math.Max(1, outerCard) - 1) * innerBytes
}

// EvalSegment computes the segment's output estimate and cost in bytes,
// given estimates for each input. This is the cost-estimation module the
// progress indicator re-invokes during refinement; the executor's U
// accounting mirrors these formulas exactly so that work done converges
// to the estimated cost as estimates converge to truth.
func (d *Decomposition) EvalSegment(s *Segment, inputs []Est) (out Est, costBytes float64) {
	if len(inputs) != len(s.Inputs) {
		//lint:ignore errwrap sanctioned: caller passes the segment's own input slice; recovered at the DB.Exec boundary
		panic("segment: EvalSegment input arity mismatch")
	}
	cost := 0.0
	// inputEst reads a registered input, charging its bytes once.
	inputEst := func(n plan.Node) (Est, bool) {
		idx, ok := s.inputByNode[n]
		if !ok {
			return Est{}, false
		}
		est := inputs[idx]
		cost += est.Bytes()
		return est, true
	}
	var eval func(n plan.Node) Est
	eval = func(n plan.Node) Est {
		switch node := n.(type) {
		case *plan.SeqScan, *plan.IndexScan:
			est, ok := inputEst(n)
			if !ok {
				//lint:ignore errwrap sanctioned: decomposition invariant (every scan is a segment input); recovered at the DB.Exec boundary
				panic("segment: scan not registered as segment input")
			}
			return est
		case *plan.Filter:
			in := eval(node.Child)
			return Est{Card: in.Card * node.Sel, Width: in.Width}
		case *plan.Project:
			in := eval(node.Child)
			// Scale the optimizer's projected width by the ratio of the
			// refined input width to the optimizer's input width.
			ratio := 1.0
			if cw := node.Child.Est().Width; cw > 0 {
				ratio = in.Width / cw
			}
			return Est{Card: in.Card, Width: node.OutEst.Width * ratio}
		case *plan.HashJoin:
			// Grace form: both Partition children are registered inputs
			// of this segment. In-memory form: the join node itself is
			// registered as the consumer's build input and the probe
			// side pipelines within this segment.
			var build Est
			if node.Grace {
				build = eval(node.Build)
			} else if est, ok := inputEst(n); ok {
				build = est
			} else {
				build = eval(node.Build)
			}
			probe := eval(node.Probe)
			outEst := Est{
				Card:  node.Sel * build.Card * probe.Card,
				Width: build.Width + probe.Width,
			}
			// Probe-side spill traffic when an in-memory build
			// unexpectedly exceeds memory (the planned spill case is
			// Grace, whose partition traffic is counted at boundaries).
			// The optimizer never plans this case, so it has no term
			// there.
			if bb := build.Bytes(); !node.Grace && bb > d.WorkMemBytes && bb > 0 {
				spillFrac := 1 - d.WorkMemBytes/bb
				cost += 2 * spillFrac * probe.Bytes()
			}
			return outEst
		case *plan.Partition:
			if est, ok := inputEst(n); ok {
				return est
			}
			return eval(node.Child)
		case *plan.NLJoin:
			outer := eval(node.Outer)
			// The inner is read once through its own pipeline, then its
			// (filtered, cached) output is logically re-read once per
			// further outer tuple — matching the executor's caching.
			inner := eval(node.Inner)
			cost += RescanBytes(outer.Card, inner.Bytes())
			return Est{Card: node.Sel * outer.Card * inner.Card, Width: outer.Width + inner.Width}
		case *plan.MergeJoin:
			l := eval(node.Left)
			r := eval(node.Right)
			return Est{Card: node.Sel * l.Card * r.Card, Width: l.Width + r.Width}
		case *plan.Sort:
			// Registered: a sorted stream read from a lower segment.
			// Unregistered: this segment's own producer root.
			if est, ok := inputEst(n); ok {
				return est
			}
			in := eval(node.Child)
			cost += SortMergeBytes(in.Bytes(), d.WorkMemBytes)
			return in
		case *plan.Materialize:
			if est, ok := inputEst(n); ok {
				return est
			}
			return eval(node.Child)
		case *plan.HashAgg:
			if est, ok := inputEst(n); ok {
				return est
			}
			in := eval(node.Child)
			card := math.Min(math.Max(1, node.GroupsEst), math.Max(1, in.Card))
			return Est{Card: card, Width: node.OutEst.Width}
		case *plan.Limit:
			in := eval(node.Child)
			return Est{Card: math.Min(in.Card, float64(node.N)), Width: in.Width}
		case *plan.SemiJoin:
			inner, ok := inputEst(n)
			if !ok {
				inner = eval(node.Inner)
			}
			outer := eval(node.Outer)
			if node.OuterKey < 0 {
				// NL semi: the cached inner is re-read per outer tuple.
				cost += RescanBytes(outer.Card, inner.Bytes())
			}
			return Est{Card: node.Sel * outer.Card, Width: outer.Width}
		default:
			//lint:ignore errwrap sanctioned: cost walk mirrors the decomposition walk above; recovered at the DB.Exec boundary
			panic(fmt.Sprintf("segment: unknown node %T in EvalSegment", n))
		}
	}
	out = eval(s.Root)
	if !s.Final {
		cost += out.Bytes()
	}
	return out, cost
}

// IOShare estimates the fraction of a segment's boundary bytes that are
// physical disk traffic, given current input estimates. Base inputs and
// partition/sort boundaries move through disk; hash tables and
// materialize buffers are memory-resident. This feeds the per-segment
// speed prediction suggested as future work in the paper's Section 4.6
// ("this conversion should take into account both the expected
// processing speed for the segments and the current system load").
func (d *Decomposition) IOShare(s *Segment, inputs []Est) float64 {
	io, total := 0.0, 0.0
	for i, in := range s.Inputs {
		b := inputs[i].Bytes()
		total += b
		if in.Base {
			io += b
			continue
		}
		switch in.Child.Kind {
		case KindPartition, KindSort:
			io += b
		}
	}
	if !s.Final {
		out, _ := d.EvalSegment(s, inputs)
		b := out.Bytes()
		total += b
		switch s.Kind {
		case KindPartition, KindSort:
			io += b
		}
	}
	if total <= 0 {
		return 1
	}
	return io / total
}

// TotalInitCost sums the initial segment costs — the optimizer's estimate
// of the query's total U (in bytes).
func (d *Decomposition) TotalInitCost() float64 {
	t := 0.0
	for _, s := range d.Segments {
		t += s.InitCost
	}
	return t
}

// String renders the decomposition for debugging, in the style of the
// paper's Figure 3 discussion.
func (d *Decomposition) String() string {
	var b strings.Builder
	for _, s := range d.Segments {
		fmt.Fprintf(&b, "S%d root=%s final=%v cost=%.0fB out=(%.0f rows × %.0fB)\n",
			s.ID, s.Root.Label(), s.Final, s.InitCost, s.InitOut.Card, s.InitOut.Width)
		for i, in := range s.Inputs {
			dom := ""
			for _, di := range s.Dominant {
				if di == i {
					dom = " [dominant]"
				}
			}
			kind := "segment"
			src := ""
			if in.Base {
				kind = "base"
				src = in.Table.Name
			} else {
				src = fmt.Sprintf("S%d", in.Child.ID)
			}
			fmt.Fprintf(&b, "  in[%d] %s %s est=(%.0f × %.0fB)%s\n", i, kind, src, in.Init.Card, in.Init.Width, dom)
		}
	}
	return b.String()
}
