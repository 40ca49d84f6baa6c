package analysis

import (
	"strings"
	"testing"
)

// TestFactsCallGraph pins the fact-store key scheme and edge semantics
// on a synthetic package: FullName keys for functions and methods,
// $litN keys for literals, go-launch edges excluded from synchronous
// reachability, interface calls devirtualized to structural
// implementors.
func TestFactsCallGraph(t *testing.T) {
	m, err := FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	const path = "progressdb/internal/factsfixture"
	pkg, err := m.CheckSource(path, "facts_fixture.go", `
package fixture

type counterI interface{ Bump() }

type impl struct{ n int }

var bumps int

func (i *impl) Bump() { i.n++; bumps++ }

func callIface(c counterI) { c.Bump() }

func a() { b() }

func b() { go c() }

func c() {}

func lits() {
	f := func() {}
	f()
	go func() {}()
}
`)
	if err != nil {
		t.Fatal(err)
	}
	facts := BuildFacts(m.Fset, []*Package{pkg})

	keyA, keyB, keyC := path+".a", path+".b", path+".c"
	for _, key := range []string{keyA, keyB, keyC, path + ".lits$lit1", path + ".lits$lit2",
		"(*" + path + ".impl).Bump"} {
		if _, ok := facts.Funcs[key]; !ok {
			t.Errorf("function key %s missing from Facts.Funcs", key)
		}
	}

	// a→b is a synchronous edge; b→c is a go launch and must not count
	// as synchronous reachability.
	if _, ok := facts.FindPath(keyA, func(k string) bool { return k == keyB }); !ok {
		t.Errorf("no synchronous path a→b")
	}
	if _, ok := facts.FindPath(keyA, func(k string) bool { return k == keyC }); ok {
		t.Errorf("go-launched edge b→c leaked into synchronous reachability")
	}
	if !facts.Reachable(keyA)[keyB] || facts.Reachable(keyA)[keyC] {
		t.Errorf("Reachable(a) = %v, want b but not go-launched c", facts.Reachable(keyA))
	}

	// lits defines $lit1 synchronously and go-launches $lit2.
	var defEdge, goEdge bool
	for _, c := range facts.Calls[path+".lits"] {
		switch c.Callee {
		case path + ".lits$lit1":
			defEdge = !c.Go
		case path + ".lits$lit2":
			goEdge = c.Go
		}
	}
	if !defEdge || !goEdge {
		t.Errorf("lits edges: defEdge=%v goEdge=%v, want both true", defEdge, goEdge)
	}

	// The interface call is recorded under the interface method's key and
	// devirtualized to the structural implementor.
	ifaceKey := "(" + path + ".counterI).Bump"
	implKey := "(*" + path + ".impl).Bump"
	if _, ok := facts.FindPath(path+".callIface", func(k string) bool { return k == implKey }); !ok {
		t.Errorf("interface call not devirtualized: no path callIface → %s (calls: %v, %v)",
			implKey, facts.Calls[path+".callIface"], facts.Calls[ifaceKey])
	}

}

// TestFactsModuleWide builds facts over the real module and checks the
// properties progresslint's interprocedural analyzers rely on: a
// populated graph with cross-package edges resolved through export
// data, and every function key resolvable back from its position.
func TestFactsModuleWide(t *testing.T) {
	m, err := FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	facts := BuildFacts(m.Fset, m.Packages)
	if len(facts.Funcs) == 0 || len(facts.Calls) == 0 {
		t.Fatalf("empty fact store over the module: %d funcs, %d callers", len(facts.Funcs), len(facts.Calls))
	}
	for key, pos := range facts.Funcs {
		if got := facts.FuncKeyAt(pos); got != key {
			t.Fatalf("FuncKeyAt(%v) = %q, want %q", pos, got, key)
		}
	}
	// At least one call edge must cross between two internal packages —
	// the property that makes lockdisc interprocedural.
	crossPkg := false
	for caller, calls := range facts.Calls {
		callerPkg := internalPkgOf(caller)
		if callerPkg == "" {
			continue
		}
		for _, c := range calls {
			if calleePkg := internalPkgOf(c.Callee); calleePkg != "" && calleePkg != callerPkg {
				crossPkg = true
			}
		}
	}
	if !crossPkg {
		t.Error("no cross-package call edge found in the module graph")
	}
}

// internalPkgOf extracts the progressdb/internal/<pkg> prefix of a
// function key, tolerating the "(" and "(*" receiver forms.
func internalPkgOf(key string) string {
	key = strings.TrimLeft(key, "(*")
	const prefix = "progressdb/internal/"
	if !strings.HasPrefix(key, prefix) {
		return ""
	}
	rest := strings.TrimPrefix(key, prefix)
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}
