package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"progressdb/internal/analysis"
)

// Lockdisc checks that nothing blocks while a mutex is held. While a
// sync.Mutex/RWMutex is locked, the critical section must not block:
// channel sends/receives outside a select with a default case, selects
// without a default, sync.Cond.Wait, sync.WaitGroup.Wait, time.Sleep, or
// os.File I/O — directly, or through any module function the section
// calls, however deep. Calls through function values are flagged too:
// the analyzer cannot see behind them, and the one real bug this rule
// caught (the fleet aggregator invoking its paced progress callback
// under the state mutex) hid exactly there. A lock that intentionally
// serializes a long region (the fleet's per-shard coarse lock) opts out
// with //lint:lockcoarse <reason> on the field declaration.
//
// Run records three facts per function — its static callees, its first
// blocking operation and its first call through a function value — plus
// what every critical section does. A function literal's body counts as
// part of the function that defines it, unless the literal is
// go-launched. End resolves each call made under a lock breadth-first
// over the facts of the whole run, so a section may call into a package
// visited after it.
//
// The analysis is syntactic and deliberately conservative in known
// ways: lock identity is the receiver's final field ("pkg.Type.field"),
// so two instances of one type share an identity; a critical section
// ends at the first statement that unlocks on any branch; interface
// method calls are not followed; deferred and go-launched calls are not
// part of the critical section.
var Lockdisc = &analysis.Analyzer{
	Name: "lockdisc",
	Doc: "no blocking operation while a lock is held: directly, through " +
		"a module function the critical section calls, or through a " +
		"function value",
	Run: runLockdisc,
	End: endLockdisc,
}

const (
	lockdiscStateKey = "lockdisc.state"
	// lockcoarseDirective on a mutex field declaration exempts that
	// lock from the no-blocking rule: //lint:lockcoarse <reason>.
	lockcoarseDirective = "lint:lockcoarse"
)

// lockdiscState accumulates module-wide facts across Run passes.
type lockdiscState struct {
	// funcs: per-function facts, keyed by (*types.Func).FullName, which
	// is the same string whether the function was type-checked from
	// source or imported through export data.
	funcs map[string]*funcFacts
	// held: what the critical sections do, tagged with the held lock.
	held []heldOp
	// coarse: lock keys carrying //lint:lockcoarse.
	coarse map[string]bool
}

type funcFacts struct {
	callees []string
	// block and dyn describe the first blocking operation and the first
	// call through a function value ("" when there is none).
	block, dyn string
}

// opKind classifies one synchronous operation of a stretch of code.
type opKind int

const (
	opBlock opKind = iota // a blocking operation; desc describes it
	opDyn                 // a call through a function value; desc names it
	opCall                // a static call; desc is the callee key
)

type lockOp struct {
	kind opKind
	desc string
	pos  token.Pos
}

type heldOp struct {
	lock string
	lockOp
}

func lockdiscStateOf(pass *analysis.Pass) *lockdiscState {
	if st, ok := pass.State.Get(lockdiscStateKey).(*lockdiscState); ok {
		return st
	}
	st := &lockdiscState{
		funcs:  make(map[string]*funcFacts),
		coarse: make(map[string]bool),
	}
	pass.State.Set(lockdiscStateKey, st)
	return st
}

func runLockdisc(pass *analysis.Pass) error {
	st := lockdiscStateOf(pass)
	collectLockCoarse(pass, st)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				st.funcs[fn.FullName()] = factsOf(syncOps(pass, fd.Body, false))
			}
			forEachStmtList(fd.Body, func(list []ast.Stmt) {
				for i, s := range list {
					lc, ok := lockStmt(pass, s)
					if !ok {
						continue
					}
					for _, held := range criticalSection(pass, lc, list[i+1:]) {
						for _, op := range syncOps(pass, held, true) {
							st.held = append(st.held, heldOp{lock: lc.key, lockOp: op})
						}
					}
				}
			})
		}
	}
	return nil
}

// factsOf condenses a function body's operations into its facts.
func factsOf(ops []lockOp) *funcFacts {
	f := &funcFacts{}
	for _, op := range ops {
		switch {
		case op.kind == opCall:
			f.callees = append(f.callees, op.desc)
		case op.kind == opBlock && f.block == "":
			f.block = op.desc
		case op.kind == opDyn && f.dyn == "":
			f.dyn = op.desc
		}
	}
	return f
}

// collectLockCoarse records //lint:lockcoarse comments on mutex field
// declarations, reporting the directive where it has no effect.
func collectLockCoarse(pass *analysis.Pass, st *lockdiscState) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			stype, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range stype.Fields.List {
				reason, found := fieldDirective(field, lockcoarseDirective)
				if !found {
					continue
				}
				if reason == "" {
					pass.Reportf(field.Pos(), "lint:lockcoarse needs a reason")
					continue
				}
				tv, ok := pass.TypesInfo.Types[field.Type]
				if !ok || !isMutexType(tv.Type) {
					pass.Reportf(field.Pos(), "lint:lockcoarse on a non-mutex field has no effect")
					continue
				}
				for _, name := range field.Names {
					key := pass.Path + "." + ts.Name.Name + "." + name.Name
					st.coarse[key] = true
				}
			}
			return true
		})
	}
}

// fieldDirective finds a directive in a struct field's doc or line
// comment and returns its argument text.
func fieldDirective(field *ast.Field, directive string) (arg string, found bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, directive) {
				return strings.TrimSpace(strings.TrimPrefix(text, directive)), true
			}
		}
	}
	return "", false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockCall classifies a mutex Lock/Unlock call.
type lockCall struct {
	key    string // lock identity
	method string // Lock, RLock, Unlock, RUnlock
}

// classifyLockCall returns the lock call a call expression performs.
func classifyLockCall(pass *analysis.Pass, call *ast.CallExpr) (lockCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockCall{}, false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || !isMutexType(s.Recv()) {
		return lockCall{}, false
	}
	key := lockKeyOf(pass, sel.X)
	if key == "" {
		return lockCall{}, false
	}
	return lockCall{key: key, method: method}, true
}

// lockKeyOf names the lock receiver: the final field of the selector
// chain ("pkg.Type.field"), a package-level variable ("pkg.var"), a
// local variable ("local:name"), or the embedding struct when the mutex
// is embedded.
func lockKeyOf(pass *analysis.Pass, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return "local:" + v.Name()
		}
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			t := s.Recv()
			for {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + s.Obj().Name()
			}
		}
		return lockKeyOf(pass, e.Sel)
	case *ast.IndexExpr:
		return lockKeyOf(pass, e.X)
	case *ast.StarExpr:
		return lockKeyOf(pass, e.X)
	}
	return ""
}

// lockStmt reports whether s is the statement `<lock>.Lock()` or
// `<lock>.RLock()`.
func lockStmt(pass *analysis.Pass, s ast.Stmt) (lockCall, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return lockCall{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	lc, ok := classifyLockCall(pass, call)
	return lc, ok && (lc.method == "Lock" || lc.method == "RLock")
}

// forEachStmtList visits every statement list of the body — the body
// itself, nested blocks (function literals' included), case and comm
// clause bodies.
func forEachStmtList(body *ast.BlockStmt, visit func(list []ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			visit(n.List)
		case *ast.CaseClause:
			visit(n.Body)
		case *ast.CommClause:
			visit(n.Body)
		}
		return true
	})
}

// criticalSection returns the statements that follow a Lock and run
// while it is held: all of rest after a deferred unlock, otherwise up to
// and including the first statement that unlocks — the Unlock itself,
// or a branch that unlocks to unwind an error.
func criticalSection(pass *analysis.Pass, lc lockCall, rest []ast.Stmt) []ast.Stmt {
	unlock := "Unlock"
	if lc.method == "RLock" {
		unlock = "RUnlock"
	}
	for j, s := range rest {
		if d, ok := s.(*ast.DeferStmt); ok && isUnlockCall(pass, d.Call, lc.key, unlock) {
			return rest
		}
		unlocks := false
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isUnlockCall(pass, call, lc.key, unlock) {
				unlocks = true
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
		if unlocks {
			return rest[:j+1]
		}
	}
	return rest
}

func isUnlockCall(pass *analysis.Pass, call *ast.CallExpr, key, method string) bool {
	lc, ok := classifyLockCall(pass, call)
	return ok && lc.key == key && lc.method == method
}

// syncOps lists, in source order, the operations root performs on the
// calling goroutine: blocking operations, calls through function values
// and static calls. go statements are skipped — the launched call runs
// on its own goroutine. In a critical section, deferred calls and the
// bodies of literals not invoked on the spot are skipped too: they run
// after the section, if at all.
func syncOps(pass *analysis.Pass, root ast.Node, critical bool) []lockOp {
	var ops []lockOp
	add := func(kind opKind, desc string, pos token.Pos) {
		ops = append(ops, lockOp{kind: kind, desc: desc, pos: pos})
	}
	// A send or receive that is a select's communication is not reported
	// on its own: with a default case it is a non-blocking attempt, and
	// without one the select itself is the single blocking site.
	var comms []ast.Stmt
	inComm := func(n ast.Node) bool {
		for _, c := range comms {
			if c.Pos() <= n.Pos() && n.End() <= c.End() {
				return true
			}
		}
		return false
	}
	invoked := make(map[*ast.FuncLit]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			return !critical
		case *ast.FuncLit:
			return !critical || invoked[n]
		case *ast.SelectStmt:
			if !hasDefaultClause(n) {
				add(opBlock, "select without default", n.Pos())
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms = append(comms, cc.Comm)
				}
			}
		case *ast.SendStmt:
			if !inComm(n) {
				add(opBlock, "channel send", n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm(n) {
				add(opBlock, "channel receive", n.Pos())
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			} else if key := calleeKey(pass, n); key != "" {
				if desc, ok := blockingCallee(key); ok {
					add(opBlock, desc, n.Pos())
				} else {
					add(opCall, key, n.Pos())
				}
			} else if isDynamicCall(pass, n) {
				add(opDyn, callSource(n), n.Pos())
			}
		}
		return true
	})
	return ops
}

// calleeKey resolves a call expression to its static callee's FullName,
// or "" for calls through function values, conversions and builtins.
// An interface method call resolves to the interface method, which has
// no body and so no facts.
func calleeKey(pass *analysis.Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.FullName()
			}
			return ""
		}
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// isDynamicCall reports whether call goes through a function value
// (not a conversion, builtin, or method/function reference).
func isDynamicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return false
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[f].(type) {
		case *types.Builtin, *types.TypeName, *types.Func:
			return false
		}
		return true
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[f]; ok {
			// A method call is static (already keyed); selecting a
			// func-typed field is the canonical dynamic callback.
			_, isMethod := sel.Obj().(*types.Func)
			return !isMethod
		}
		if _, ok := pass.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			return false
		}
		return true
	case *ast.FuncLit:
		return false
	}
	return true
}

func callSource(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "function value"
}

// blockingCallee reports whether a static callee is in the known
// blocking set.
func blockingCallee(key string) (string, bool) {
	switch key {
	case "time.Sleep":
		return "time.Sleep", true
	case "(*sync.Cond).Wait":
		return "sync.Cond.Wait", true
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait", true
	}
	if strings.HasPrefix(key, "(*os.File).") {
		return "os.File I/O (" + strings.TrimPrefix(key, "(*os.File).") + ")", true
	}
	switch key {
	case "os.Open", "os.Create", "os.OpenFile", "os.ReadFile", "os.WriteFile",
		"os.Remove", "os.RemoveAll", "os.Rename", "os.Stat", "os.ReadDir",
		"os.Mkdir", "os.MkdirAll", "os.Truncate":
		return "file I/O (" + key + ")", true
	}
	return "", false
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---- End: interprocedural resolution ----

func endLockdisc(pass *analysis.Pass) error {
	st := lockdiscStateOf(pass)
	for _, h := range st.held {
		if st.coarse[h.lock] {
			continue
		}
		switch h.kind {
		case opBlock:
			pass.Reportf(h.pos,
				"blocking %s while %s is held: move it out of the critical section "+
					"or declare the lock //lint:lockcoarse <reason>",
				h.desc, h.lock)
		case opDyn:
			pass.Reportf(h.pos,
				"call through function value %s while %s is held may block: "+
					"invoke callbacks outside the critical section or declare the "+
					"lock //lint:lockcoarse <reason>",
				h.desc, h.lock)
		case opCall:
			if end, op := st.firstReached(h.desc, func(f *funcFacts) string { return f.block }); end != "" {
				pass.Reportf(h.pos,
					"%s is held across a call to %s, which transitively blocks (%s in %s): "+
						"shrink the critical section or declare the lock //lint:lockcoarse <reason>",
					h.lock, shortKey(h.desc), op, shortKey(end))
			} else if end, op := st.firstReached(h.desc, func(f *funcFacts) string { return f.dyn }); end != "" {
				pass.Reportf(h.pos,
					"%s is held across a call to %s, which calls through the function "+
						"value %s (in %s) and may block: invoke callbacks outside the "+
						"critical section or declare the lock //lint:lockcoarse <reason>",
					h.lock, shortKey(h.desc), op, shortKey(end))
			}
		}
	}
	return nil
}

// firstReached searches breadth-first from the function key through the
// callee facts for the first function whose fact, as picked, is set,
// and returns that function's key and the fact ("" if none is reached).
func (st *lockdiscState) firstReached(key string, pick func(*funcFacts) string) (string, string) {
	seen := map[string]bool{key: true}
	for queue := []string{key}; len(queue) > 0; queue = queue[1:] {
		f := st.funcs[queue[0]]
		if f == nil {
			continue
		}
		if op := pick(f); op != "" {
			return queue[0], op
		}
		for _, c := range f.callees {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return "", ""
}

// shortKey trims the module path prefix for readable diagnostics.
func shortKey(key string) string {
	return strings.ReplaceAll(key, "progressdb/internal/", "")
}
