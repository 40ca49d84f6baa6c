package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/faultinject"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// The unwind sweep checks the executor's one unwind rule — Close is
// idempotent and closes every child, whether or not the child's Open
// succeeded — at every point a query can stop early: an I/O fault or a
// panic at each temp-file access, at evenly spaced base-file accesses,
// and a cancel at evenly spaced safe points. A run that did not panic
// must leave nothing behind before Env.ReleaseScans and Env.ReclaimTemps
// run; those two are the backstop for a panic only, which skips every
// Close. A canceled run must also stop within the bound cancelEvery
// documents: from the cancel to the return, the clock charges at most
// cancelEvery CPU units, so a loop that streams rows without passing a
// safe point fails here.

// unwindStatement is one statement of the sweep: the join algorithm it is
// forced to ("": the optimizer's choice), and an operator its plan must
// hold at the spilling work_mem ("": none).
type unwindStatement struct{ name, sql, algo, plans string }

// unwindStatements are the benchmark's nine analytic statements (the
// paper's Q1–Q5, a sort, a small and a large aggregate, a semi-join),
// plus Q2 under merge joins, whose inputs are spilling sorts, Q3 under
// nested loops, whose inner is materialized, a hybrid hash join whose
// build is three times its estimate (absolute(k) > 0 is taken for 1/3)
// and whose probe keys all but miss it: at 2 pages the join spills at run
// time and re-reads spilled probe batches that return no row; and the
// same join without the filter, which plans a Grace join at 2 pages whose
// probe partitions return no row either.
var unwindStatements = func() []unwindStatement {
	var out []unwindStatement
	for _, st := range workload.BenchStatements[:workload.Mix9] {
		out = append(out, unwindStatement{st.Name, st.SQL, "", ""})
	}
	q2, q3 := out[1].sql, out[2].sql
	const noMatch = `select o.orderdate, l.linestatus from orders o, lineitem l where o.orderkey = l.partkey`
	return append(out, unwindStatement{"q2 merge", q2, "merge", ""}, unwindStatement{"q3 nl", q3, "nl", ""},
		unwindStatement{"no-match spill", noMatch + " and absolute(o.orderkey) > 0", "", ""},
		unwindStatement{"grace no-match", noMatch, "", "GraceHashJoin"})
}()

// unwindWorkMem spills every blocking operator that can spill (2 pages)
// and none of them (2048).
var unwindWorkMem = []int{2, 2048}

// unwindCover is what the statements must run between them.
var unwindCover = []string{
	"HashJoin spilled at run time", "GraceHashJoin", "HashPartition",
	"Sort with merge passes", "HashAggregate", "Materialize",
	"NestedLoopJoin", "MergeJoin", "HashSemiJoin",
}

// unwindKind is one way to stop a run at its k-th point: a spec key of
// the fault injector on one file class, or a cancel at a safe point (all
// files) or at a temp-file read.
type unwindKind struct {
	key    string // "nthread", "nthwrite", "panicnth" or "cancel"
	target faultinject.Target
}

var unwindKinds = []unwindKind{
	{"nthread", faultinject.TargetTemp},
	{"nthwrite", faultinject.TargetTemp},
	{"panicnth", faultinject.TargetTemp},
	{"nthread", faultinject.TargetBase},
	{"nthwrite", faultinject.TargetBase},
	{"panicnth", faultinject.TargetBase},
	{"cancel", faultinject.TargetAll},
	{"cancel", faultinject.TargetTemp},
}

// count is how many points of this kind a clean run of ref passes.
func (k unwindKind) count(ref *unwindRef) int64 {
	io := ref.temp
	if k.target == faultinject.TargetBase {
		io = ref.base
	}
	switch k.key {
	case "nthread":
		return io.Reads
	case "nthwrite":
		return io.Writes
	case "panicnth":
		return io.Reads + io.Writes
	case "cancel":
		if k.target == faultinject.TargetTemp {
			return io.Reads
		}
	}
	return ref.want.yields
}

// ordinals are the points the sweep runs: every temp-file access, or 18
// evenly spaced from the first to the last.
func (k unwindKind) ordinals(ref *unwindRef) []int64 {
	n := k.count(ref)
	var ks []int64
	if k.target == faultinject.TargetTemp {
		for i := int64(1); i <= n; i++ {
			ks = append(ks, i)
		}
		return ks
	}
	for i := int64(0); n > 0 && i < 18; i++ {
		if o := 1 + i*(n-1)/17; len(ks) == 0 || ks[len(ks)-1] != o {
			ks = append(ks, o)
		}
	}
	return ks
}

// arm is the schedule that stops a run at point n, and the safe point or
// temp-file read it cancels at (0: none).
func (k unwindKind) arm(n int64) (faultinject.Config, int64) {
	cfg := faultinject.Config{Target: k.target}
	switch k.key {
	case "nthread":
		cfg.FailNthRead = n
	case "nthwrite":
		cfg.FailNthWrite = n
	case "panicnth":
		cfg.PanicNth = n
	default:
		return cfg, n
	}
	return cfg, 0
}

// unwindSweep is the paper's data set at scale 0.0005, with 60-row
// subsets, behind a 12-page pool. The pool is cleared before every run,
// so the k-th access of a run is the same access every time.
type unwindSweep struct {
	cat   *catalog.Catalog
	pool  *storage.BufferPool
	clock *vclock.Clock
	refs  map[[2]int]*unwindRef
}

// unwindRef is one statement at one work_mem: its plan, its clean run,
// the temp- and base-file accesses that run made, and the operators it
// ran.
type unwindRef struct {
	name       string
	plan       plan.Node
	wm         int
	want       unwindRun
	temp, base faultinject.Stats
	cover      map[string]bool
}

// unwindRun is what one run left.
type unwindRun struct {
	rows   int64
	sum    uint64 // FNV-1a over the rows' encodings, in output order
	err    error
	panic  any
	io     faultinject.Stats
	yields int64 // safe points passed
	// afterCancel is the CPU units the clock charged from the cancel to
	// the return (0: no cancel).
	afterCancel float64
}

func newUnwindSweep(t testing.TB) *unwindSweep {
	t.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 1e-4, RandPage: 8e-4, CPUTuple: 1e-7}, nil)
	pool := storage.NewBufferPool(storage.NewDisk(clock), 12)
	cat := catalog.New(pool)
	if _, err := workload.Load(cat, workload.Config{Scale: 0.0005, SubsetRows: 60, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	return &unwindSweep{cat: cat, pool: pool, clock: clock, refs: map[[2]int]*unwindRef{}}
}

// ref plans statement i at work_mem wm and runs it clean, once counting
// temp-file accesses and once base-file ones.
func (s *unwindSweep) ref(t testing.TB, i, wm int) *unwindRef {
	t.Helper()
	if ref := s.refs[[2]int{i, wm}]; ref != nil {
		return ref
	}
	st := unwindStatements[i]
	stmt, err := sqlparser.Parse(st.sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Plan(s.cat, stmt, optimizer.Options{WorkMemPages: wm, ForceJoinAlgo: st.algo})
	if err != nil {
		t.Fatal(err)
	}
	ref := &unwindRef{name: st.name, plan: p, wm: wm, cover: map[string]bool{}}
	coll := NewCollector()
	ref.want, _ = s.run(ref, faultinject.Config{Target: faultinject.TargetTemp}, 0, coll)
	base, _ := s.run(ref, faultinject.Config{Target: faultinject.TargetBase}, 0, nil)
	if ref.want.err != nil || ref.want.panic != nil || base.err != nil || base.panic != nil ||
		ref.want.rows == 0 || base.rows != ref.want.rows || base.sum != ref.want.sum {
		t.Fatalf("%s at work_mem %d: clean runs %+v and %+v\n%s", st.name, wm, ref.want, base, plan.Format(p))
	}
	if err := unwindLeaks(s.pool); err != nil {
		t.Fatalf("%s at work_mem %d: clean run: %v", st.name, wm, err)
	}
	ref.temp, ref.base = ref.want.io, base.io
	coverOps(p, coll, ref.cover)
	if st.plans != "" && wm == unwindWorkMem[0] && !ref.cover[st.plans] {
		t.Fatalf("%s at work_mem %d plans no %s\n%s", st.name, wm, st.plans, plan.Format(p))
	}
	s.refs[[2]int{i, wm}] = ref
	return ref
}

// coverOps records the operators of n's tree, naming a hash join that
// spilled at run time and a sort that needed merge passes.
func coverOps(n plan.Node, coll *Collector, seen map[string]bool) {
	op := strings.Fields(n.Label())[0]
	notes := strings.Join(coll.Notes(n), "\n")
	switch {
	case op == "HashJoin" && strings.Contains(notes, "spilled to"):
		op += " spilled at run time"
	case op == "Sort" && strings.Contains(notes, "intermediate merge"):
		op += " with merge passes"
	}
	seen[op] = true
	for _, c := range n.Children() {
		coverOps(c, coll, seen)
	}
}

// run executes ref's plan once on a cleared pool under cfg, canceling at
// safe point cancelAt, or at temp-file read cancelAt when cfg targets temp
// files (0: never). It recovers a panic and runs no backstop; env is
// returned for that.
func (s *unwindSweep) run(ref *unwindRef, cfg faultinject.Config, cancelAt int64, coll *Collector) (r unwindRun, env *Env) {
	s.pool.Clear()
	ctx, cancel := context.WithCancel(context.Background())
	env = &Env{Pool: s.pool, Clock: s.clock, WorkMemPages: ref.wm,
		Decomp: segment.Decompose(ref.plan, ref.wm), Ctx: ctx, Collect: coll}
	canceledAt := -1.0 // the clock's CPU units at the cancel
	stop := func() {
		cancel()
		env.nyield = cancelEvery - 1 // the next safe point's poll sees it
		// The clock, not the disk's counters: a cancel at a temp-file
		// read runs under the disk's lock.
		canceledAt = s.clock.UnitsOf(vclock.CPU)
	}
	onRead := cfg.Target == faultinject.TargetTemp
	env.Yield = func() {
		if r.yields++; r.yields == cancelAt && !onRead {
			stop()
		}
	}
	in := faultinject.New(cfg)
	var inj storage.FaultInjector = in
	if cancelAt > 0 && onRead {
		inj = cancelAtRead{in, cancelAt, stop}
	}
	s.pool.Disk().SetFaultInjector(inj)
	defer func() {
		r.panic = recover()
		r.io = in.Stats()
		s.pool.Disk().SetFaultInjector(nil)
		cancel()
	}()
	h := fnv.New64a()
	var enc []byte
	r.rows, r.err = Run(env, ref.plan, func(t tuple.Tuple) error {
		enc = t.Encode(enc[:0])
		h.Write(enc)
		return nil
	})
	r.sum = h.Sum64()
	if canceledAt >= 0 {
		r.afterCancel = s.clock.UnitsOf(vclock.CPU) - canceledAt
	}
	return r, env
}

// point runs ref stopped at point n of kind k and checks the unwind: a
// typed error or the reference rows (a CanceledError within cancelEvery
// CPU units after a cancel), and nothing left behind — before the
// backstop, or after it for a panic.
func (s *unwindSweep) point(ref *unwindRef, k unwindKind, n int64) error {
	cfg, cancelAt := k.arm(n)
	at := cfg.String()
	if cancelAt > 0 {
		at = fmt.Sprintf("cancel at safe point %d", cancelAt)
		if cfg.Target == faultinject.TargetTemp {
			at = fmt.Sprintf("cancel at temp-file read %d", cancelAt)
		}
	}
	r, env := s.run(ref, cfg, cancelAt, nil)
	leak := unwindLeaks(s.pool)
	env.ReleaseScans()
	env.ReclaimTemps()
	if r.panic != nil {
		if msg, _ := r.panic.(string); !strings.HasPrefix(msg, "faultinject: scheduled panic") {
			return fmt.Errorf("%s: panic: %v", at, r.panic)
		}
		if err := unwindLeaks(s.pool); err != nil {
			return fmt.Errorf("%s: after the panic and the backstop: %v", at, err)
		}
		return nil
	}
	if leak != nil {
		return fmt.Errorf("%s: before the backstop: %v (the run returned %v)", at, leak, r.err)
	}
	var fault *storage.IOFault
	var canceled *CanceledError
	switch {
	case r.err == nil && (r.rows != ref.want.rows || r.sum != ref.want.sum):
		return fmt.Errorf("%s: returned %d rows (sum %x), want %d (sum %x)", at, r.rows, r.sum, ref.want.rows, ref.want.sum)
	case r.err != nil && !errors.As(r.err, &fault) && !errors.As(r.err, &canceled):
		return fmt.Errorf("%s: untyped error %v", at, r.err)
	case cancelAt > 0 && !errors.As(r.err, &canceled):
		return fmt.Errorf("%s: the cancel was never heard (the run returned %v)", at, r.err)
	case r.afterCancel > cancelEvery:
		return fmt.Errorf("%s: the clock charged %g CPU units after the cancel, want at most %d", at, r.afterCancel, cancelEvery)
	}
	return nil
}

// cancelAtRead is an injector that also cancels the run at its n-th
// temp-file read: the cancel lands wherever the executor is reading, and
// a safe point must hear it before the run ends.
type cancelAtRead struct {
	*faultinject.Injector
	n    int64
	stop func()
}

func (c cancelAtRead) BeforePageIO(op storage.FaultOp, class storage.FileClass) (float64, error) {
	lat, err := c.Injector.BeforePageIO(op, class)
	if op == storage.OpRead && class == storage.ClassTemp && c.Stats().Reads == c.n {
		c.stop()
	}
	return lat, err
}

// clean runs ref without faults: the reference rows, nothing left.
func (s *unwindSweep) clean(ref *unwindRef) error {
	r, _ := s.run(ref, faultinject.Config{}, 0, nil)
	if r.err != nil || r.panic != nil || r.rows != ref.want.rows || r.sum != ref.want.sum {
		return fmt.Errorf("clean run: %d rows (sum %x), error %v, panic %v; want %d rows (sum %x)",
			r.rows, r.sum, r.err, r.panic, ref.want.rows, ref.want.sum)
	}
	return unwindLeaks(s.pool)
}

// scrub removes what a failed point left, so one leak is reported once.
func (s *unwindSweep) scrub() {
	for _, id := range s.pool.Disk().OpenFilesOfClass(storage.ClassTemp) {
		s.pool.RemoveFile(id)
	}
}

// unwindLeaks is DB.CheckLeaks for a bare pool: no temp file, no cached
// page of a removed file, no pin.
func unwindLeaks(pool *storage.BufferPool) error {
	if temps := pool.Disk().OpenFilesOfClass(storage.ClassTemp); len(temps) > 0 {
		return fmt.Errorf("%d temp file(s) left: %v", len(temps), temps)
	}
	if orphans := pool.OrphanedPages(); len(orphans) > 0 {
		return fmt.Errorf("%d cached page(s) of removed files: %v", len(orphans), orphans)
	}
	if pins := pool.PinnedFrames(); pins != 0 {
		return fmt.Errorf("%d frame pin(s) held", pins)
	}
	return nil
}

// TestUnwindSweep runs every statement at both work_mems to every point
// of every kind, then cleanly once after each kind, and asserts the
// statements cover the operators that hold temp files or pins.
func TestUnwindSweep(t *testing.T) {
	s := newUnwindSweep(t)
	seen := map[string]bool{}
	runs := 0
	for i := range unwindStatements {
		for _, wm := range unwindWorkMem {
			ref := s.ref(t, i, wm)
			for op := range ref.cover {
				seen[op] = true
			}
			for _, k := range unwindKinds {
				for _, n := range k.ordinals(ref) {
					runs++
					if err := s.point(ref, k, n); err != nil {
						t.Errorf("%s at work_mem %d: %v", ref.name, wm, err)
						s.scrub()
						break
					}
				}
				if err := s.clean(ref); err != nil {
					t.Errorf("%s at work_mem %d, after %s on %s files: %v", ref.name, wm, k.key, k.target, err)
					s.scrub()
				}
			}
		}
	}
	for _, op := range unwindCover {
		if !seen[op] {
			t.Errorf("no statement runs %s", op)
		}
	}
	t.Logf("%d points", runs)
}

// FuzzUnwind runs one point of the space TestUnwindSweep samples per
// input: statement × work_mem × kind × k, k taken modulo the kind's
// count.
func FuzzUnwind(f *testing.F) {
	for _, seed := range []uint64{1, 2, 25, 61, 104, 1 << 20, 987654321} {
		f.Add(seed)
	}
	s := newUnwindSweep(f)
	f.Fuzz(func(t *testing.T, seed uint64) {
		draw := func(n int) int {
			v := int(seed % uint64(n))
			seed /= uint64(n)
			return v
		}
		ref := s.ref(t, draw(len(unwindStatements)), unwindWorkMem[draw(len(unwindWorkMem))])
		k := unwindKinds[draw(len(unwindKinds))]
		count := k.count(ref)
		if count == 0 {
			return
		}
		if err := s.point(ref, k, int64(seed%uint64(count))+1); err != nil {
			t.Fatalf("%s at work_mem %d: %v", ref.name, ref.wm, err)
		}
	})
}
