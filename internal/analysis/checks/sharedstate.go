package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"progressdb/internal/analysis"
)

// Sharedstate is the concurrency-readiness audit for ROADMAP item 1
// (the multi-core engine): it inventories every piece of mutable state
// in the engine-core packages that more than one worker could reach,
// and fails the build on the indefensible subset.
//
// Two outputs:
//
//   - Diagnostics: a mutable package-level variable in an engine-core
//     package that is written outside init (or whose address escapes)
//     is an error — package-level singletons are exactly what breaks
//     per-query isolation when workers multiply. Variables only
//     written during initialization, sync.*-typed variables, and
//     atomic-typed variables pass.
//
//   - Inventory: every package-level variable and every struct type
//     with mutable fields in scope is recorded into the run's State,
//     with its guard situation (mutex field, atomic fields, or
//     nothing). cmd/progresslint's -assert-guarded reads it: the
//     structs the multi-core engine latched must stay latched.
//
// Scope: internal/{core,exec,catalog,stats,storage,segment,vclock} —
// the packages a concurrent executor would share. The serving layers
// (server, fleet) already run concurrent and are covered by lockdisc
// and `go test -race`.
var Sharedstate = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "mutable package-level state in engine-core packages must be " +
		"init-only or guarded; all shared-mutable sites are inventoried " +
		"for the concurrency-readiness report",
	Run: runSharedstate,
	End: endSharedstate,
}

const sharedstateStateKey = "sharedstate.report"

// sharedStatePackages are the engine-core packages a multi-worker
// executor would share.
var sharedStatePackages = []string{
	"progressdb/internal/core",
	"progressdb/internal/exec",
	"progressdb/internal/catalog",
	"progressdb/internal/stats",
	"progressdb/internal/storage",
	"progressdb/internal/segment",
	"progressdb/internal/vclock",
}

func isSharedStatePackage(path string) bool {
	for _, p := range sharedStatePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// VarSite is one package-level variable in the inventory.
type VarSite struct {
	Package string
	Name    string
	// Guard is "sync", "atomic", or "none".
	Guard string

	pos token.Pos
	key string
}

// StructSite is one struct type in the inventory.
type StructSite struct {
	Package string
	Type    string
	Pos     string
	// Guards lists the mutex fields, if any.
	Guards []string
	// AtomicFields lists fields of sync/atomic type.
	AtomicFields []string
	// PlainFields lists the mutable fields not individually atomic.
	PlainFields []string
	// Unguarded marks structs with plain mutable fields and no mutex:
	// safe only while a single worker owns each instance.
	Unguarded bool
}

// ConcurrencyReport is the sharedstate inventory.
type ConcurrencyReport struct {
	// PackageVars inventories package-level variables in scope.
	PackageVars []VarSite
	// Structs inventories struct types with mutable fields in scope.
	Structs []StructSite
}

// SharedStateReport extracts the inventory a sharedstate run left in
// the shared State (ok is false if the analyzer did not run).
func SharedStateReport(state *analysis.State) (*ConcurrencyReport, bool) {
	r, ok := state.Get(sharedstateStateKey).(*ConcurrencyReport)
	return r, ok
}

func sharedstateReportOf(pass *analysis.Pass) *ConcurrencyReport {
	if r, ok := pass.State.Get(sharedstateStateKey).(*ConcurrencyReport); ok {
		return r
	}
	r := &ConcurrencyReport{}
	pass.State.Set(sharedstateStateKey, r)
	return r
}

func runSharedstate(pass *analysis.Pass) error {
	if !isSharedStatePackage(pass.Path) {
		return nil
	}
	report := sharedstateReportOf(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						v, ok := pass.TypesInfo.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						report.PackageVars = append(report.PackageVars, VarSite{
							Package: pass.Path,
							Name:    name.Name,
							Guard:   varGuard(v.Type()),
							pos:     name.Pos(),
							key:     pass.Path + "." + name.Name,
						})
					}
				}
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					stype, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					site := structSite(pass, ts, stype)
					if len(site.PlainFields)+len(site.AtomicFields) > 0 {
						report.Structs = append(report.Structs, site)
					}
				}
			}
		}
	}
	return nil
}

// shortQualifier renders cross-package type names with the bare
// package name, keeping the report readable.
func shortQualifier(p *types.Package) string { return p.Name() }

// varGuard classifies a package variable's type: "sync" (sync.Mutex,
// sync.Once, sync.Map, ...), "atomic" (atomic.Int64, ...), or "none".
func varGuard(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		switch named.Obj().Pkg().Path() {
		case "sync":
			return "sync"
		case "sync/atomic":
			return "atomic"
		}
	}
	return "none"
}

// structSite classifies one struct type's fields.
func structSite(pass *analysis.Pass, ts *ast.TypeSpec, stype *ast.StructType) StructSite {
	site := StructSite{
		Package: pass.Path,
		Type:    ts.Name.Name,
		Pos:     pass.Fset.Position(ts.Pos()).String(),
	}
	for _, field := range stype.Fields.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		names := make([]string, 0, len(field.Names))
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
		if len(names) == 0 {
			names = []string{types.TypeString(tv.Type, shortQualifier)} // embedded
		}
		switch {
		case isMutexType(tv.Type):
			site.Guards = append(site.Guards, names...)
		case varGuard(tv.Type) == "atomic":
			site.AtomicFields = append(site.AtomicFields, names...)
		case immutableFieldType(tv.Type):
			// Functions and channels are referenced, not mutated in
			// place; they do not make the struct racy by themselves.
		default:
			site.PlainFields = append(site.PlainFields, names...)
		}
	}
	site.Unguarded = len(site.Guards) == 0 && len(site.PlainFields) > 0
	return site
}

// immutableFieldType reports field types that are not themselves
// mutable cells: funcs and channels (the chan structure is internally
// synchronized).
func immutableFieldType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Chan:
		return true
	}
	return false
}

func endSharedstate(pass *analysis.Pass) error {
	report, ok := SharedStateReport(pass.State)
	if !ok {
		return nil
	}
	sort.Slice(report.PackageVars, func(i, j int) bool {
		a, b := report.PackageVars[i], report.PackageVars[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	sort.Slice(report.Structs, func(i, j int) bool {
		a, b := report.Structs[i], report.Structs[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Type < b.Type
	})
	for _, v := range report.PackageVars {
		if v.Guard != "none" {
			continue
		}
		for _, a := range pass.Facts.Accesses[v.key] {
			if a.Mode == analysis.ModeRead {
				continue
			}
			if a.Func == "" || a.Func == v.Package+".init" {
				continue // initialization
			}
			pass.Reportf(v.pos,
				"unguarded mutable package-level variable %s (%s at %s): a "+
					"multi-worker engine races on it — move it into the engine "+
					"instance, guard it, or make it init-only",
				v.Name, a.Mode, pass.Fset.Position(a.Pos))
			break
		}
	}
	return nil
}
