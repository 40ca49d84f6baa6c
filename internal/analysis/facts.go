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
					b.inFunc("", func() { b.expr(v) })
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
		b.expr(s.X)
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			b.expr(l)
		}
		for _, r := range s.Rhs {
			b.expr(r)
		}
	case *ast.IncDecStmt:
		b.expr(s.X)
	case *ast.SendStmt:
		b.expr(s.Chan)
		b.expr(s.Value)
	case *ast.GoStmt:
		b.call(s.Call, true, false)
	case *ast.DeferStmt:
		b.call(s.Call, false, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.expr(r)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.expr(s.Cond)
		b.stmt(s.Body)
		b.stmt(s.Else)
	case *ast.ForStmt:
		b.stmt(s.Init)
		if s.Cond != nil {
			b.expr(s.Cond)
		}
		b.stmt(s.Post)
		b.stmt(s.Body)
	case *ast.RangeStmt:
		if s.Key != nil {
			b.expr(s.Key)
		}
		if s.Value != nil {
			b.expr(s.Value)
		}
		b.expr(s.X)
		b.stmt(s.Body)
	case *ast.SwitchStmt:
		b.stmt(s.Init)
		if s.Tag != nil {
			b.expr(s.Tag)
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
			b.expr(e)
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
						b.expr(v)
					}
				}
			}
		}
	}
}

// ---- expressions ----

func (b *factsBuilder) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		// A qualified identifier pkg.Name has nothing to walk.
		if _, ok := b.pkg.Info.Selections[e]; ok {
			b.expr(e.X)
		}
	case *ast.CallExpr:
		b.call(e, false, false)
	case *ast.FuncLit:
		b.funcLit(e, false)
	case *ast.UnaryExpr:
		b.expr(e.X)
	case *ast.StarExpr:
		b.expr(e.X)
	case *ast.ParenExpr:
		b.expr(e.X)
	case *ast.IndexExpr:
		b.expr(e.X)
		b.expr(e.Index)
	case *ast.IndexListExpr:
		b.expr(e.X)
		for _, i := range e.Indices {
			b.expr(i)
		}
	case *ast.SliceExpr:
		b.expr(e.X)
		b.expr(e.Low)
		b.expr(e.High)
		b.expr(e.Max)
	case *ast.TypeAssertExpr:
		b.expr(e.X)
	case *ast.BinaryExpr:
		b.expr(e.X)
		b.expr(e.Y)
	case *ast.KeyValueExpr:
		b.expr(e.Key)
		b.expr(e.Value)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			b.expr(elt)
		}
	}
}

// ---- calls ----

func (b *factsBuilder) call(call *ast.CallExpr, goLaunch, deferred bool) {
	info := b.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x) walks x and records no edge.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			b.expr(a)
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
			b.expr(fn.X)
			b.callArgs(call)
			return
		}
		// Qualified function pkg.F, or a method expression/value.
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			b.edge(f, call, goLaunch, deferred)
		} else {
			b.expr(fn) // function-typed package var: dynamic
		}
		b.callArgs(call)
		return
	}
	// Dynamic call through an arbitrary expression.
	b.expr(fun)
	b.callArgs(call)
}

func (b *factsBuilder) callArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		b.expr(a)
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
