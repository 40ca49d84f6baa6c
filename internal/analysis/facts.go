package analysis

// Module-wide interprocedural facts. Run builds one Facts store over
// every package of a run before any analyzer executes, so Run-phase
// analyzers already see the complete call graph — the same "collect
// everywhere, resolve once" shape the obsnames End hook pioneered, but
// computed by the framework instead of each analyzer.
//
// Identity is by string key, never by types.Object: a package that is
// type-checked from source and the same package imported through gc
// export data produce distinct *types.Package values, so object
// identity does not survive package boundaries. (*types.Func).FullName
// does — "pkg.Fn", "(pkg.T).M", "(*pkg.T).M" — and function literals
// get a derived key "<enclosing>$lit<N>" numbered in source order.
//
// Interface calls are recorded against the interface method's own key
// and then expanded ("devirtualized") to every named type in the run
// whose method set covers the interface by method name and arity. The
// structural match is deliberate: types.Implements would demand
// identical named types across the source/export-data divide. The
// expansion over-approximates (a type may match by shape without being
// used behind that interface), which is the right direction for lint.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// AccessMode classifies one package-variable access.
type AccessMode int

const (
	// ModeRead is a plain read.
	ModeRead AccessMode = iota
	// ModeWrite is a plain write (assignment, ++/--, container mutation
	// through an index expression).
	ModeWrite
	// ModeAddr is an address-taking &x: the pointer escapes, so any
	// access may happen through it.
	ModeAddr
)

func (m AccessMode) String() string {
	switch m {
	case ModeWrite:
		return "write"
	case ModeAddr:
		return "address-taken"
	default:
		return "read"
	}
}

// Access is one recorded access to a package-level variable.
type Access struct {
	// Key identifies the variable: "pkg.var".
	Key string
	// Func is the enclosing function's key; "" for package-level
	// initializer expressions.
	Func string
	Pos  token.Pos
	Mode AccessMode
}

// Call is one static call edge.
type Call struct {
	Caller string
	// Callee is the static callee key; interface calls use the
	// interface method's key, which Facts expands with edges to every
	// shape-compatible named type's method.
	Callee string
	Pos    token.Pos
	// Go marks a `go` launch: the callee runs asynchronously, so
	// synchronous-behavior queries (FindPath) skip these edges.
	Go bool
	// Defer marks a deferred call.
	Defer bool
}

// Facts is the module-wide fact store shared by all passes of one Run.
type Facts struct {
	// Calls maps a caller key to its call sites, in source order.
	Calls map[string][]Call
	// Accesses maps a package-variable key to every access in the run.
	Accesses map[string][]Access
	// Funcs holds every function key with a body in the run.
	Funcs map[string]token.Pos

	funcKeyAt map[token.Pos]string
	reach     map[string]map[string]bool
}

// FuncKeyAt returns the key of the function or function literal
// declared at pos ("" if unknown). Analyzers use it to share the
// framework's key scheme when they walk syntax themselves.
func (f *Facts) FuncKeyAt(pos token.Pos) string { return f.funcKeyAt[pos] }

// FindPath does a breadth-first search from the function key `from`
// through synchronous call edges (go-launch edges are skipped; deferred
// calls are followed) and returns the first path — as the sequence of
// call sites taken — to a function satisfying target. It returns nil if
// none is reachable. from itself is tested first with an empty path.
func (f *Facts) FindPath(from string, target func(key string) bool) ([]Call, bool) {
	if target(from) {
		return nil, true
	}
	type node struct {
		key  string
		path []Call
	}
	seen := map[string]bool{from: true}
	queue := []node{{key: from}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range f.Calls[n.key] {
			if c.Go || c.Callee == "" || seen[c.Callee] {
				continue
			}
			seen[c.Callee] = true
			path := append(append([]Call(nil), n.path...), c)
			if target(c.Callee) {
				return path, true
			}
			queue = append(queue, node{key: c.Callee, path: path})
		}
	}
	return nil, false
}

// Reachable returns the set of function keys synchronously reachable
// from key (including key itself), memoized across calls.
func (f *Facts) Reachable(key string) map[string]bool {
	if f.reach == nil {
		f.reach = make(map[string]map[string]bool)
	}
	if r, ok := f.reach[key]; ok {
		return r
	}
	seen := map[string]bool{key: true}
	queue := []string{key}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, c := range f.Calls[k] {
			if c.Go || c.Callee == "" || seen[c.Callee] {
				continue
			}
			seen[c.Callee] = true
			queue = append(queue, c.Callee)
		}
	}
	f.reach[key] = seen
	return seen
}

// CalleeKey resolves a call expression to its static callee key: the
// FullName of the called function or method, the derived key of an
// immediately invoked function literal, or "" for dynamic calls through
// function values (and for conversions and builtins).
func (f *Facts) CalleeKey(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return f.funcKeyAt[fun.Pos()]
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.FullName()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.FullName()
			}
			return ""
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.FullName()
		}
	}
	return ""
}

// BuildFacts walks every package and assembles the run's fact store.
// Packages are processed in sorted import-path order so keys and site
// lists are deterministic.
func BuildFacts(fset *token.FileSet, pkgs []*Package) *Facts {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	f := &Facts{
		Calls:     make(map[string][]Call),
		Accesses:  make(map[string][]Access),
		Funcs:     make(map[string]token.Pos),
		funcKeyAt: make(map[token.Pos]string),
	}
	b := &factsBuilder{
		facts:  f,
		ifaces: make(map[string]ifaceCallee),
	}
	for _, pkg := range sorted {
		b.pkg = pkg
		for _, file := range pkg.Files {
			b.file(file)
		}
	}
	b.expandInterfaces(sorted)
	return f
}

// ifaceCallee remembers one interface method that was called somewhere
// in the run, for devirtualization.
type ifaceCallee struct {
	iface  *types.Interface
	method string
}

type factsBuilder struct {
	facts  *Facts
	pkg    *Package
	fn     string         // enclosing function key; "" at package level
	litSeq map[string]int // FuncLit counter per enclosing function
	ifaces map[string]ifaceCallee
}

func (b *factsBuilder) file(file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			key := b.pkg.Path + "." + d.Name.Name
			if fn, ok := b.pkg.Info.Defs[d.Name].(*types.Func); ok {
				key = fn.FullName()
			}
			b.facts.Funcs[key] = d.Pos()
			b.facts.funcKeyAt[d.Pos()] = key
			b.inFunc(key, func() { b.stmt(d.Body) })
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					b.inFunc("", func() { b.expr(v, ModeRead) })
				}
			}
		}
	}
}

func (b *factsBuilder) inFunc(key string, body func()) {
	prevFn, prevSeq := b.fn, b.litSeq
	b.fn, b.litSeq = key, make(map[string]int)
	body()
	b.fn, b.litSeq = prevFn, prevSeq
}

// funcLit assigns the literal its derived key, records the definition
// edge from the enclosing function (skipped for go-launched literals,
// which callers record as Go edges instead), and walks the body.
func (b *factsBuilder) funcLit(lit *ast.FuncLit, launched bool) string {
	b.litSeq[b.fn]++
	key := b.fn + "$lit" + strconv.Itoa(b.litSeq[b.fn])
	b.facts.Funcs[key] = lit.Pos()
	b.facts.funcKeyAt[lit.Pos()] = key
	if !launched && b.fn != "" {
		b.addCall(Call{Caller: b.fn, Callee: key, Pos: lit.Pos()})
	}
	b.inFunc(key, func() { b.stmt(lit.Body) })
	return key
}

func (b *factsBuilder) addCall(c Call) {
	b.facts.Calls[c.Caller] = append(b.facts.Calls[c.Caller], c)
}

// ---- statements ----

func (b *factsBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.ExprStmt:
		b.expr(s.X, ModeRead)
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			b.assignTarget(l)
		}
		for _, r := range s.Rhs {
			b.expr(r, ModeRead)
		}
	case *ast.IncDecStmt:
		b.assignTarget(s.X)
	case *ast.SendStmt:
		b.expr(s.Chan, ModeRead)
		b.expr(s.Value, ModeRead)
	case *ast.GoStmt:
		b.call(s.Call, true, false)
	case *ast.DeferStmt:
		b.call(s.Call, false, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.expr(r, ModeRead)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.expr(s.Cond, ModeRead)
		b.stmt(s.Body)
		b.stmt(s.Else)
	case *ast.ForStmt:
		b.stmt(s.Init)
		if s.Cond != nil {
			b.expr(s.Cond, ModeRead)
		}
		b.stmt(s.Post)
		b.stmt(s.Body)
	case *ast.RangeStmt:
		if s.Key != nil {
			b.assignTarget(s.Key)
		}
		if s.Value != nil {
			b.assignTarget(s.Value)
		}
		b.expr(s.X, ModeRead)
		b.stmt(s.Body)
	case *ast.SwitchStmt:
		b.stmt(s.Init)
		if s.Tag != nil {
			b.expr(s.Tag, ModeRead)
		}
		b.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init)
		b.stmt(s.Assign)
		b.stmt(s.Body)
	case *ast.SelectStmt:
		b.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			b.expr(e, ModeRead)
		}
		for _, st := range s.Body {
			b.stmt(st)
		}
	case *ast.CommClause:
		b.stmt(s.Comm)
		for _, st := range s.Body {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						b.expr(v, ModeRead)
					}
				}
			}
		}
	}
}

// assignTarget records the write side of an assignment. Writes through
// an index expression count against the container (mutating a map or
// slice element mutates shared state the container owns); writes
// through a dereferenced pointer only read the pointer.
func (b *factsBuilder) assignTarget(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		b.ident(e, ModeWrite)
	case *ast.SelectorExpr:
		b.sel(e, ModeWrite)
	case *ast.IndexExpr:
		b.expr(e.X, ModeWrite)
		b.expr(e.Index, ModeRead)
	case *ast.StarExpr:
		b.expr(e.X, ModeRead)
	default:
		b.expr(e, ModeRead)
	}
}

// ---- expressions ----

func (b *factsBuilder) expr(e ast.Expr, mode AccessMode) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		b.ident(e, mode)
	case *ast.SelectorExpr:
		b.sel(e, mode)
	case *ast.CallExpr:
		b.call(e, false, false)
	case *ast.FuncLit:
		b.funcLit(e, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			b.addrOf(e.X)
			return
		}
		b.expr(e.X, ModeRead)
	case *ast.StarExpr:
		b.expr(e.X, ModeRead)
	case *ast.ParenExpr:
		b.expr(e.X, mode)
	case *ast.IndexExpr:
		b.expr(e.X, mode)
		b.expr(e.Index, ModeRead)
	case *ast.IndexListExpr:
		b.expr(e.X, mode)
		for _, i := range e.Indices {
			b.expr(i, ModeRead)
		}
	case *ast.SliceExpr:
		b.expr(e.X, ModeRead)
		b.expr(e.Low, ModeRead)
		b.expr(e.High, ModeRead)
		b.expr(e.Max, ModeRead)
	case *ast.TypeAssertExpr:
		b.expr(e.X, ModeRead)
	case *ast.BinaryExpr:
		b.expr(e.X, ModeRead)
		b.expr(e.Y, ModeRead)
	case *ast.KeyValueExpr:
		b.expr(e.Key, ModeRead)
		b.expr(e.Value, ModeRead)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			b.expr(elt, ModeRead)
		}
	}
}

// addrOf records &target as an address-taken access.
func (b *factsBuilder) addrOf(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		b.ident(e, ModeAddr)
	case *ast.SelectorExpr:
		b.sel(e, ModeAddr)
	default:
		b.expr(e, ModeRead)
	}
}

// ident records an access if the identifier names a package-level
// variable (of any package in or out of the run).
func (b *factsBuilder) ident(e *ast.Ident, mode AccessMode) {
	obj := b.pkg.Info.Uses[e]
	if obj == nil {
		obj = b.pkg.Info.Defs[e]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	key := v.Pkg().Path() + "." + v.Name()
	b.facts.Accesses[key] = append(b.facts.Accesses[key], Access{Key: key, Func: b.fn, Pos: e.Pos(), Mode: mode})
}

// sel walks a selector: the base of a field or method selection is a
// read; a qualified identifier pkg.Name may itself be a package variable.
func (b *factsBuilder) sel(e *ast.SelectorExpr, mode AccessMode) {
	if _, ok := b.pkg.Info.Selections[e]; ok {
		b.expr(e.X, ModeRead)
		return
	}
	b.ident(e.Sel, mode)
}

// ---- calls ----

func (b *factsBuilder) call(call *ast.CallExpr, goLaunch, deferred bool) {
	info := b.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x) walks x and records no edge.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			b.expr(a, ModeRead)
		}
		return
	}

	switch fn := fun.(type) {
	case *ast.FuncLit:
		key := b.funcLit(fn, goLaunch)
		if b.fn != "" {
			b.addCall(Call{Caller: b.fn, Callee: key, Pos: call.Pos(), Go: goLaunch, Defer: deferred})
		}
		b.callArgs(call)
		return
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			b.edge(f, call, goLaunch, deferred)
		}
		b.callArgs(call)
		return
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			m, _ := sel.Obj().(*types.Func)
			if m != nil {
				b.edge(m, call, goLaunch, deferred)
				if types.IsInterface(sel.Recv()) {
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						b.ifaces[m.FullName()] = ifaceCallee{iface: iface, method: m.Name()}
					}
				}
			}
			b.expr(fn.X, ModeRead)
			b.callArgs(call)
			return
		}
		// Qualified function pkg.F, or a method expression/value.
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			b.edge(f, call, goLaunch, deferred)
		} else {
			b.expr(fn, ModeRead) // function-typed package var: dynamic
		}
		b.callArgs(call)
		return
	}
	// Dynamic call through an arbitrary expression.
	b.expr(fun, ModeRead)
	b.callArgs(call)
}

func (b *factsBuilder) callArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		b.expr(a, ModeRead)
	}
}

func (b *factsBuilder) edge(f *types.Func, call *ast.CallExpr, goLaunch, deferred bool) {
	if b.fn == "" {
		return
	}
	b.addCall(Call{Caller: b.fn, Callee: f.FullName(), Pos: call.Pos(), Go: goLaunch, Defer: deferred})
}

// ---- interface devirtualization ----

// expandInterfaces adds edges from every called interface method to the
// same-named method of every named type in the run whose method set
// covers the interface by name and arity.
func (b *factsBuilder) expandInterfaces(pkgs []*Package) {
	if len(b.ifaces) == 0 {
		return
	}
	type method struct {
		fn     *types.Func
		params int
		result int
	}
	// Collect the full (pointer) method set of every named type.
	var typeNames []string
	methodSets := make(map[string]map[string]method)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			if ms.Len() == 0 {
				continue
			}
			key := pkg.Path + "." + name
			set := make(map[string]method, ms.Len())
			for i := 0; i < ms.Len(); i++ {
				fn, ok := ms.At(i).Obj().(*types.Func)
				if !ok {
					continue
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					continue
				}
				set[fn.Name()] = method{fn: fn, params: sig.Params().Len(), result: sig.Results().Len()}
			}
			methodSets[key] = set
			typeNames = append(typeNames, key)
		}
	}
	sort.Strings(typeNames)

	ifaceKeys := make([]string, 0, len(b.ifaces))
	for k := range b.ifaces {
		ifaceKeys = append(ifaceKeys, k)
	}
	sort.Strings(ifaceKeys)

	seen := make(map[string]bool)
	for _, ik := range ifaceKeys {
		ic := b.ifaces[ik]
		for _, tn := range typeNames {
			set := methodSets[tn]
			covers := true
			for i := 0; i < ic.iface.NumMethods(); i++ {
				im := ic.iface.Method(i)
				sig := im.Type().(*types.Signature)
				m, ok := set[im.Name()]
				if !ok || m.params != sig.Params().Len() || m.result != sig.Results().Len() {
					covers = false
					break
				}
			}
			if !covers {
				continue
			}
			target, ok := set[ic.method]
			if !ok {
				continue
			}
			callee := target.fn.FullName()
			if callee == ik || seen[ik+"→"+callee] {
				continue
			}
			seen[ik+"→"+callee] = true
			b.facts.Calls[ik] = append(b.facts.Calls[ik], Call{Caller: ik, Callee: callee})
		}
	}
}
