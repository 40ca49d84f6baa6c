package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// This file is the fixture harness: a small reimplementation of
// x/tools' analysistest. Fixture files live under a package's testdata
// directory (so the go tool ignores them), carry trailing
//
//	// want "regexp" ["regexp" ...]
//
// comments on lines where diagnostics are expected, and are
// type-checked as a synthetic package under an assumed import path, so
// a fixture can stand in for any package of the module (lockdisc names
// a mutex by its package's path). A fixture fails the test both when an
// expected diagnostic is missing (the analyzer is broken) and when an
// unexpected one appears (the analyzer over-reports), so every fixture
// is also the "fails without the analyzer" proof the CI contract asks
// for.

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

// FixtureModule loads the enclosing module once per test binary; all
// fixture packages type-check against its export-data index. Exposed
// so tests can synthesize multi-package runs (e.g. cross-package
// duplicate detection).
func FixtureModule() (*Module, error) {
	fixtureOnce.Do(func() {
		root, err := ModuleRoot("")
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureMod, fixtureErr = Load(root, "./...")
	})
	return fixtureMod, fixtureErr
}

// RunFixtures type-checks the fixture files as one synthetic package
// with the assumed import path, runs the analyzers over it (including
// suppression handling and the suppress meta-check), and matches the
// diagnostics against the fixtures' want comments.
func RunFixtures(t *testing.T, analyzers []*Analyzer, assumedPath string, fixtures ...string) {
	t.Helper()
	m, err := FixtureModule()
	if err != nil {
		t.Fatalf("loading module for fixtures: %v", err)
	}
	pkg, err := m.CheckFiles(assumedPath, fixtures...)
	if err != nil {
		t.Fatalf("type-checking fixtures: %v", err)
	}
	diags, err := Run(m.Fset, []*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	checkWants(t, m.Fset, pkg, diags)
}

// RunFixture runs a single analyzer over fixture files.
func RunFixture(t *testing.T, a *Analyzer, assumedPath string, fixtures ...string) {
	t.Helper()
	RunFixtures(t, []*Analyzer{a}, assumedPath, fixtures...)
}

// RunSource is RunFixtures over in-memory source, for table-driven
// tests that synthesize small packages inline.
func RunSource(t *testing.T, analyzers []*Analyzer, assumedPath, filename, src string) {
	t.Helper()
	m, err := FixtureModule()
	if err != nil {
		t.Fatalf("loading module for fixtures: %v", err)
	}
	pkg, err := m.CheckSource(assumedPath, filename, src)
	if err != nil {
		t.Fatalf("type-checking source: %v", err)
	}
	diags, err := Run(m.Fset, []*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	checkWants(t, m.Fset, pkg, diags)
}

// want is one expectation parsed from a `// want "re"` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// wantRE matches one pattern in a want comment: either "double quoted"
// (with backslash escapes) or `backquoted` (taken literally).
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// parseWants extracts expectations from the package's comments.
func parseWants(t *testing.T, fset *token.FileSet, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, match := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := match[2] // backquoted: literal
					if match[2] == "" && match[1] != "" {
						var err error
						if pat, err = unquoteWant(match[1]); err != nil {
							t.Fatalf("%s: bad want pattern: %v", pos, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// unquoteWant undoes the minimal escaping allowed inside want strings.
func unquoteWant(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			if i >= len(s) {
				return "", fmt.Errorf("trailing backslash in %q", s)
			}
		}
		b.WriteByte(s[i])
	}
	return b.String(), nil
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, fset *token.FileSet, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.met || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
