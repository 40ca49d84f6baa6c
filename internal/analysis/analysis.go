// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository. It exists
// because two of the engine's correctness arguments — reliable error
// unwrapping and no blocking while a lock is held — rest on
// *conventions* that ordinary tests cannot see being eroded: a flattened
// error or a blocking call under a mutex goes wrong only on a path a test
// rarely takes. The checks in internal/analysis/checks turn those
// conventions into machine-checked invariants over types;
// cmd/progresslint runs them over the whole module in CI.
//
// The framework deliberately mirrors the x/tools API shape (Analyzer,
// Pass, Reportf, analysistest-style fixtures with "// want" comments)
// so that if the x/tools dependency is ever vendored, the checks can be
// ported mechanically and exposed through `go vet -vettool`. Until
// then, everything here builds with the standard library only: package
// loading shells out to `go list -export` and type-checks from source
// against the toolchain's export data (see load.go).
//
// Suppressions use staticcheck's syntax:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line above it. A suppression with
// an unknown analyzer name, a missing reason, or that silences nothing
// is itself reported (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run is invoked once per
// package with a fully type-checked Pass.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:ignore
	// suppressions. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant: what it
	// checks and why the engine needs it.
	Doc string
	// Run reports violations through pass.Reportf. A returned error
	// aborts the whole lint run (reserved for internal failures, not
	// findings).
	Run func(pass *Pass) error
	// End, when non-nil, is invoked once after every package's Run,
	// with a package-less Pass (Files/Path/Pkg/TypesInfo are zero; Fset
	// and State are the run's). It is where module-wide facts
	// accumulated in State are resolved — e.g. lockdisc following a
	// call made under a lock into a package visited later, which no
	// single package's Run can decide. Report positions recorded during
	// Run; the shared Fset resolves them.
	End func(pass *Pass) error
}

// Pass carries one package's syntax and types to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (tests excluded),
	// in deterministic (file name) order.
	Files []*ast.File
	// Path is the package's effective import path. Fixture packages
	// assume the path of the package they stand in for (e.g. a lockdisc
	// fixture runs with Path "progressdb/internal/server").
	Path string
	// Pkg and TypesInfo hold the full go/types results.
	Pkg       *types.Package
	TypesInfo *types.Info
	// State is shared by all passes of one Run, letting analyzers
	// accumulate module-wide facts (e.g. lockdisc's per-function call
	// edges). Packages are visited in sorted
	// import-path order, so cross-package state is deterministic.
	State *State

	diags *[]Diagnostic
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation, with its position resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// State is a string-keyed scratch space shared across an entire Run.
type State struct{ m map[string]interface{} }

// NewState returns an empty shared state.
func NewState() *State { return &State{m: make(map[string]interface{})} }

// Get returns the value stored under key, or nil.
func (s *State) Get(key string) interface{} { return s.m[key] }

// Set stores v under key.
func (s *State) Set(key string, v interface{}) { s.m[key] = v }

// Run applies every analyzer to every package, applies //lint:ignore
// suppressions, appends meta-diagnostics for bad or unused
// suppressions, and returns the surviving diagnostics sorted by
// position. Packages are visited in sorted Path order.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	state := NewState()
	var raw []Diagnostic
	var sups []*suppression
	for _, pkg := range sorted {
		sups = append(sups, collectSuppressions(fset, pkg.Files)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				State:     state,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.End == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, State: state, diags: &raw}
		if err := a.End(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s end: %w", a.Name, err)
		}
	}

	kept := applySuppressions(raw, sups)
	kept = append(kept, suppressionDiagnostics(sups, known)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
