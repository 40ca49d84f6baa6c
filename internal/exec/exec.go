// Package exec is the Volcano-style query executor. Every operator
// charges the virtual clock for its physical I/O (through the buffer
// pool) and per-tuple CPU work, and reports boundary bytes to the
// progress indicator's WorkReporter exactly where the paper's counting
// rules dictate: base inputs as they are read, segment outputs as the
// blocking operator materializes them, and multi-stage bytes once per
// logical pass.
package exec

import (
	"context"
	"fmt"

	"progressdb/internal/expr"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// CPU work constants, in clock units (one unit ≈ one simple per-tuple
// operation).
const (
	cpuTuple    = 1.0 // streaming a tuple through an operator
	cpuHashOp   = 2.0 // hash insert or probe
	cpuPairBase = 8.0 // nested-loops pair evaluation overhead
)

// Env is the execution context shared by all operators of one query.
type Env struct {
	Pool         *storage.BufferPool
	Clock        *vclock.Clock
	WorkMemPages int
	// Reporter receives boundary-byte events; nil disables statistics
	// collection (the paper's per-plan flag).
	Reporter segment.WorkReporter
	// Decomp supplies segment tags for every boundary node.
	Decomp *segment.Decomposition
	// Yield, when non-nil, is called at safe points (between tuples) so
	// a scheduler can interleave concurrently executing queries on the
	// shared virtual clock.
	Yield func()
	// Ctx, when non-nil, is polled for cancellation at the executor's
	// yield safe points (and at the root tuple loop). When it is
	// canceled, execution unwinds promptly mid-pipeline with a
	// *CanceledError; operators release their resources through the
	// normal error path. Leave nil (or pass a context whose Done channel
	// is nil) to run without cancellation checks.
	Ctx context.Context
	// Met are the engine-wide executor instruments; the zero value is
	// disabled (all increments are nil-safe no-ops).
	Met Metrics
	// Collect accumulates per-operator actuals for EXPLAIN ANALYZE and
	// tracing; nil disables collection.
	Collect *Collector

	// nyield counts safe-point passes so the (comparatively expensive)
	// context poll is amortized over cancelEvery tuples.
	nyield uint

	// temps tracks every temp file created by this query's operators so
	// ReclaimTemps can guarantee cleanup even when an error or panic
	// bypasses the iterator Close chain.
	temps []storage.FileID

	// wrap, when non-nil, wraps every operator Build constructs; the
	// ownership-contract tests use it to put a poisoning iterator under
	// every consumer.
	wrap func(Iterator) Iterator

	// scans tracks the pinning base-table scanners opened by this
	// query's scan operators so ReleaseScans can drop their buffer-pool
	// pins even when an error or panic bypasses the Close chain.
	scans []*storage.Scanner
}

// newTempFile allocates a per-query scratch heap file, bound to this
// query's clock, and registers it for end-of-query reclamation. All
// operators must create their spill files through this helper, never
// storage.CreateHeapFile directly.
func (e *Env) newTempFile() *storage.HeapFile {
	f := storage.CreateTempHeapFileOn(e.Pool, e.Clock)
	e.temps = append(e.temps, f.ID())
	return f
}

// newBaseScanner opens a pinning scanner over a base-table heap on this
// query's clock and registers it for end-of-query pin release.
func (e *Env) newBaseScanner(hf *storage.HeapFile) *storage.Scanner {
	sc := hf.NewScannerOn(e.Clock)
	e.scans = append(e.scans, sc)
	return sc
}

// ReleaseScans closes every tracked base-table scanner, releasing any
// buffer-pool pins still held. On clean execution the operators' Close
// chain has already done this (Close is idempotent); after an error or
// recovered panic this is the guarantee that the query pins nothing.
// Safe to call multiple times.
func (e *Env) ReleaseScans() {
	for _, sc := range e.scans {
		sc.Close()
	}
	e.scans = nil
}

// ReclaimTemps force-drops any tracked temp files still allocated,
// returning how many were reclaimed. On clean execution (success,
// error, or cancel through the normal unwind) every operator has
// already dropped its files and this is a no-op; after a recovered
// panic it is the guarantee that the query leaked nothing. Safe to call
// multiple times.
func (e *Env) ReclaimTemps() int {
	disk := e.Pool.Disk()
	n := 0
	for _, id := range e.temps {
		if !disk.Exists(id) {
			continue
		}
		if err := e.Pool.RemoveFile(id); err == nil {
			n++
		}
	}
	e.temps = nil
	return n
}

// cancelEvery is how many safe-point passes elapse between context
// polls. Cancellation latency is therefore bounded by cancelEvery
// tuples of work — microseconds of real time — while the per-tuple hot
// path pays only a counter increment and a branch.
const cancelEvery = 64

// CanceledError reports that execution stopped at a safe point because
// Env.Ctx was canceled. It unwraps to the context's cause, so
// errors.Is(err, context.Canceled) (or DeadlineExceeded) holds.
type CanceledError struct{ Cause error }

func (e *CanceledError) Error() string {
	return "exec: query canceled: " + e.Cause.Error()
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// InternalError is a panic recovered at an engine boundary (DB.Exec*,
// the group scheduler, or a progressd worker): an executor or segment
// invariant violation that failed one query instead of the process.
// The engine remains usable; the job transitions to failed.
type InternalError struct {
	// PanicValue is the recovered value.
	PanicValue interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// NewInternalError wraps a recovered panic value and its stack.
func NewInternalError(v interface{}, stack []byte) *InternalError {
	return &InternalError{PanicValue: v, Stack: stack}
}

// Error describes the contained panic.
func (e *InternalError) Error() string {
	return fmt.Sprintf("exec: internal error (recovered panic): %v", e.PanicValue)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As keep working through the boundary.
func (e *InternalError) Unwrap() error {
	if err, ok := e.PanicValue.(error); ok {
		return err
	}
	return nil
}

// yield runs the scheduler yield hook (if any) and polls for
// cancellation. Operators must propagate a non-nil return.
func (e *Env) yield() error {
	if e.Yield != nil {
		e.Yield()
	}
	return e.checkCancel()
}

// checkCancel polls Env.Ctx every cancelEvery calls.
func (e *Env) checkCancel() error {
	if e.Ctx == nil {
		return nil
	}
	e.nyield++
	if e.nyield%cancelEvery != 0 {
		return nil
	}
	select {
	case <-e.Ctx.Done():
		return &CanceledError{Cause: context.Cause(e.Ctx)}
	default:
		return nil
	}
}

func (e *Env) workMemBytes() float64 {
	return float64(e.WorkMemPages) * storage.PageSize
}

func (e *Env) rep() segment.WorkReporter {
	if e.Reporter == nil {
		return nopReporter{}
	}
	return e.Reporter
}

func (e *Env) info(n plan.Node) (segment.NodeInfo, error) {
	info, ok := e.Decomp.Info[n]
	if !ok {
		return segment.NodeInfo{}, fmt.Errorf("exec: node %s has no segment tag", n.Label())
	}
	return info, nil
}

type nopReporter struct{}

func (nopReporter) InputTuple(int, int, int)             {}
func (nopReporter) InputBulk(int, int, int64, float64)   {}
func (nopReporter) InputRepeat(int, int, int64, float64) {}
func (nopReporter) InputDone(int, int)                   {}
func (nopReporter) OutputTuple(int, int)                 {}
func (nopReporter) Extra(int, float64)                   {}
func (nopReporter) SegmentDone(int)                      {}

// Iterator is the executor's pull interface. The tuple Next returns
// belongs to the iterator and is valid only until its next Next or Close
// (see rows.go); a caller that keeps it copies it.
type Iterator interface {
	Open() error
	Next() (tuple.Tuple, bool, error)
	Close() error
}

// Build constructs the iterator tree for a physical plan. When per-query
// collection or engine metrics are enabled, every operator is wrapped
// with a statistics iterator recording rows/bytes out, open/close virtual
// times, and per-operator row counters; when both are disabled the bare
// iterators are returned unchanged.
func Build(n plan.Node, env *Env) (Iterator, error) {
	return build(n, env, nil)
}

// build is Build with column pruning: need, when non-nil, marks the
// columns of n's output that the plan above n reads. Only a Project sets
// it, only Filters pass it down and only base scans use it — every other
// operator needs its children's rows whole.
func build(n plan.Node, env *Env, need []bool) (Iterator, error) {
	it, err := buildNode(n, env, need)
	if err != nil {
		return nil, err
	}
	if env.wrap != nil {
		it = env.wrap(it)
	}
	if env.Collect == nil && !env.Met.Enabled() {
		return it, nil
	}
	si := &statsIter{
		inner: it,
		env:   env,
		st:    env.Collect.Stats(n),
		rows:  env.Met.RowsOut(opName(n)),
	}
	si.sizer, _ = it.(rowSizer)
	return si, nil
}

// buildNode constructs the bare iterator for one plan node, recursing
// through Build so children pick up stats wrapping.
func buildNode(n plan.Node, env *Env, need []bool) (Iterator, error) {
	switch node := n.(type) {
	case *plan.SeqScan:
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &seqScan{node: node, env: env, tag: info, scanSlot: scanSlot{need: need}}, nil
	case *plan.IndexScan:
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &indexScan{node: node, env: env, tag: info, scanSlot: scanSlot{need: need}}, nil
	case *plan.Filter:
		if need != nil {
			need = append([]bool(nil), need...)
			for _, c := range expr.ColumnsUsed(node.Pred) {
				need[c] = true
			}
		}
		child, err := build(node.Child, env, need)
		if err != nil {
			return nil, err
		}
		f := &filterIter{env: env, child: child, pred: expr.CompilePred(node.Pred), predCost: exprCost(node.Pred)}
		f.src, _ = child.(rowSizer)
		return f, nil
	case *plan.Project:
		need := make([]bool, node.Child.Schema().Arity())
		for _, c := range node.Cols {
			need[c] = true
		}
		child, err := build(node.Child, env, need)
		if err != nil {
			return nil, err
		}
		return &projectIter{node: node, env: env, child: child}, nil
	case *plan.HashJoin:
		if node.Grace {
			return buildGraceJoin(node, env)
		}
		build, err := Build(node.Build, env)
		if err != nil {
			return nil, err
		}
		probe, err := Build(node.Probe, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &hashJoin{
			node: node, env: env, tag: info,
			build: build, probe: probe,
			pred: expr.CompilePred(node.ExtraPred), predCost: exprCost(node.ExtraPred),
		}, nil
	case *plan.Partition:
		return nil, fmt.Errorf("exec: Partition outside a Grace hash join")
	case *plan.NLJoin:
		outer, err := Build(node.Outer, env)
		if err != nil {
			return nil, err
		}
		inner, err := Build(node.Inner, env)
		if err != nil {
			return nil, err
		}
		// The inner's boundary tag (scan or materialize) is used to
		// attribute replay passes to the right segment input.
		innerTag, err := env.info(innerBoundary(node.Inner))
		if err != nil {
			return nil, err
		}
		return &nlJoin{
			node: node, env: env,
			outer: outer, inner: inner, innerTag: innerTag,
			pred: expr.CompilePred(node.Pred), predCost: exprCost(node.Pred),
		}, nil
	case *plan.MergeJoin:
		left, err := Build(node.Left, env)
		if err != nil {
			return nil, err
		}
		right, err := Build(node.Right, env)
		if err != nil {
			return nil, err
		}
		return &mergeJoin{
			node: node, env: env, left: left, right: right,
			pred: expr.CompilePred(node.ExtraPred), predCost: exprCost(node.ExtraPred),
		}, nil
	case *plan.Sort:
		child, err := Build(node.Child, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &sortIter{node: node, env: env, child: child, tag: info}, nil
	case *plan.Materialize:
		child, err := Build(node.Child, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &materialize{env: env, child: child, tag: info}, nil
	case *plan.HashAgg:
		child, err := Build(node.Child, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &hashAgg{node: node, env: env, child: child, tag: info}, nil
	case *plan.Limit:
		child, err := Build(node.Child, env)
		if err != nil {
			return nil, err
		}
		return &limitIter{node: node, env: env, child: child}, nil
	case *plan.SemiJoin:
		outer, err := Build(node.Outer, env)
		if err != nil {
			return nil, err
		}
		inner, err := Build(node.Inner, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(node)
		if err != nil {
			return nil, err
		}
		return &semiJoin{
			node: node, env: env, tag: info,
			outer: outer, inner: inner,
			pred: expr.CompilePred(node.ExtraPred), predCost: exprCost(node.ExtraPred),
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// buildGraceJoin wires the partitioned form: each Partition child becomes
// a partitionIter run at Open, then the join streams batch pairs.
func buildGraceJoin(node *plan.HashJoin, env *Env) (Iterator, error) {
	mk := func(pn plan.Node) (*partitionIter, error) {
		part, ok := pn.(*plan.Partition)
		if !ok {
			return nil, fmt.Errorf("exec: Grace hash join child is %T, want *plan.Partition", pn)
		}
		child, err := Build(part.Child, env)
		if err != nil {
			return nil, err
		}
		info, err := env.info(part)
		if err != nil {
			return nil, err
		}
		return &partitionIter{node: part, env: env, tag: info, child: child}, nil
	}
	buildPart, err := mk(node.Build)
	if err != nil {
		return nil, err
	}
	probePart, err := mk(node.Probe)
	if err != nil {
		return nil, err
	}
	return &graceJoin{
		node: node, env: env,
		buildPart: buildPart, probePart: probePart,
		pred: expr.CompilePred(node.ExtraPred), predCost: exprCost(node.ExtraPred),
	}, nil
}

// innerBoundary finds the node carrying the segment-input tag for an NL
// join's inner subtree: the scan itself, or the Materialize boundary.
func innerBoundary(n plan.Node) plan.Node {
	switch node := n.(type) {
	case *plan.Filter:
		return innerBoundary(node.Child)
	case *plan.Project:
		return innerBoundary(node.Child)
	default:
		return n
	}
}

// Run executes a plan to completion, invoking fn (if non-nil) per result
// tuple, and returns the result cardinality. It fires the final segment's
// completion event.
func Run(env *Env, root plan.Node, fn func(tuple.Tuple) error) (int64, error) {
	it, err := Build(root, env)
	if err != nil {
		return 0, err
	}
	if err := it.Open(); err != nil {
		// A failed Open can leave partially opened children holding temp
		// files (e.g. a sort that spilled runs before its parent join
		// errored); Close is the operators' cleanup path and must run.
		it.Close()
		return 0, err
	}
	var count int64
	for {
		t, ok, err := it.Next()
		if err != nil {
			it.Close()
			return count, err
		}
		if !ok {
			break
		}
		count++
		env.Clock.ChargeCPU(cpuTuple)
		// Root-level cancellation check: covers pipelines whose inner
		// operators stream without reaching a scan-side safe point (e.g.
		// a sort's output phase feeding a merge join).
		if err := env.checkCancel(); err != nil {
			it.Close()
			return count, err
		}
		if fn != nil {
			if err := fn(t); err != nil {
				it.Close()
				return count, err
			}
		}
	}
	if err := it.Close(); err != nil {
		return count, err
	}
	final := env.Decomp.Segments[len(env.Decomp.Segments)-1]
	env.rep().SegmentDone(final.ID)
	return count, nil
}

// exprCost is the cost model's price for evaluating e once: one CPU unit
// per expression node, two for a function call. It is a property of the
// simulated machine, not of how this process evaluates e — a predicate
// compiled by expr.CompilePred is charged exactly what the tree walk was.
func exprCost(e expr.Expr) float64 {
	if e == nil {
		return 0
	}
	switch n := e.(type) {
	case *expr.ColRef, *expr.Const:
		return 1
	case *expr.Cmp:
		return 1 + exprCost(n.L) + exprCost(n.R)
	case *expr.And:
		c := 1.0
		for _, t := range n.Terms {
			c += exprCost(t)
		}
		return c
	case *expr.Func:
		c := 2.0
		for _, a := range n.Args {
			c += exprCost(a)
		}
		return c
	default:
		return 1
	}
}
