package checks

import (
	"strings"
	"testing"

	"progressdb/internal/analysis"
)

// Each fixture both proves the analyzer fires (a missed want fails the
// test, so the fixture fails without the analyzer) and pins down what
// it must NOT flag (any extra diagnostic fails the test too).

func TestVclockTimeFixture(t *testing.T) {
	analysis.RunFixture(t, VclockTime,
		"progressdb/internal/storage",
		"testdata/vclocktime/engine.go")
}

// TestVclockTimeOutsideEngine re-checks the same wall-clock-using
// source under a non-engine path: the server's wall timings are
// legitimate, so nothing may be reported.
func TestVclockTimeOutsideEngine(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{VclockTime},
		"progressdb/internal/server", "server_fixture.go", `
package fixture

import "time"

func wallLatency() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
`)
}

func TestSafepointFixture(t *testing.T) {
	analysis.RunFixture(t, Safepoint,
		"progressdb/internal/exec",
		"testdata/safepoint/loops.go")
}

// TestSafepointOutsideExec: the same unsafe loop shape in another
// package is out of scope (only the executor carries the invariant),
// so a loop that would be flagged in internal/exec reports nothing.
func TestSafepointOutsideExec(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{Safepoint},
		"progressdb/internal/btree", "btree_fixture.go", `
package fixture

type scanner struct{}

func (scanner) Next() ([]byte, int, bool) { return nil, 0, false }

type clock struct{}

func (clock) ChargeCPU(n float64) {}

func drain(sc scanner, c clock) {
	for {
		_, _, ok := sc.Next()
		if !ok {
			return
		}
		c.ChargeCPU(1)
	}
}
`)
}

// TestSafepointFleetFixture exercises the fleet rule: condition-less
// retry loops re-executing a shard subquery must poll ctx between
// attempts.
func TestSafepointFleetFixture(t *testing.T) {
	analysis.RunFixture(t, Safepoint,
		"progressdb/internal/fleet",
		"testdata/safepoint/retryloop.go")
}

// TestSafepointFleetRuleScoped: the same unpolled retry loop outside
// internal/fleet is out of scope and reports nothing.
func TestSafepointFleetRuleScoped(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{Safepoint},
		"progressdb/internal/harness", "harness_fixture.go", `
package fixture

import "context"

type db struct{}

func (db) ExecContext(ctx context.Context, sql string) (int, error) { return 0, nil }

func hammer(ctx context.Context, d db, sql string) {
	for {
		if _, err := d.ExecContext(ctx, sql); err == nil {
			return
		}
	}
}
`)
}

func TestClosepathFixture(t *testing.T) {
	analysis.RunFixture(t, Closepath,
		"progressdb/internal/exec",
		"testdata/closepath/operators.go")
}

func TestObsnamesFixture(t *testing.T) {
	analysis.RunFixture(t, Obsnames,
		"progressdb/internal/server",
		"testdata/obsnames/metrics.go",
		"testdata/obsnames/refs.go")
}

// TestObsnamesCrossPackageRef proves Ref resolution spans packages in
// either direction: a reference in a sorted-earlier package resolves
// against a registration in a sorted-later one (the End hook runs after
// every package), and an unresolvable reference is reported.
func TestObsnamesCrossPackageRef(t *testing.T) {
	m, err := analysis.FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	pkg1, err := m.CheckSource("progressdb/internal/aaa", "aaa_ref_fixture.go", `
package aaa

import "progressdb/internal/obs/tsdb"

var dash = []string{
	tsdb.Ref("exec_fixture_fwd_total"), // registered later in visit order
	tsdb.Ref("exec_fixture_missing_total"),
}
`)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := m.CheckSource("progressdb/internal/bbb", "bbb_ref_fixture.go", `
package bbb

import "progressdb/internal/obs"

func wire(reg *obs.Registry) {
	reg.Counter("exec_fixture_fwd_total", "registered after the reference")
}
`)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(m.Fset, []*analysis.Package{pkg1, pkg2}, []*analysis.Analyzer{Obsnames})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, `"exec_fixture_missing_total"`) {
		t.Errorf("diagnostic %q should name the unresolved reference", d.Message)
	}
	if d.Pos.Filename != "aaa_ref_fixture.go" {
		t.Errorf("reported at %s, want the Ref site aaa_ref_fixture.go", d.Pos.Filename)
	}
}

// TestObsnamesCrossPackageDuplicate proves duplicate detection spans
// packages: the same unlabeled name registered in two packages of one
// run is flagged at the second site.
func TestObsnamesCrossPackageDuplicate(t *testing.T) {
	m, err := analysis.FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	pkg1, err := m.CheckSource("progressdb/internal/aaa", "aaa_fixture.go", `
package aaa

import "progressdb/internal/obs"

func wire(reg *obs.Registry) {
	reg.Counter("exec_fixture_dup_total", "first site")
}
`)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := m.CheckSource("progressdb/internal/bbb", "bbb_fixture.go", `
package bbb

import "progressdb/internal/obs"

func wire(reg *obs.Registry) {
	reg.Counter("exec_fixture_dup_total", "second site") // duplicate
}
`)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(m.Fset, []*analysis.Package{pkg1, pkg2}, []*analysis.Analyzer{Obsnames})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Filename != "bbb_fixture.go" {
		t.Errorf("duplicate reported at %s, want the second (sorted-later) site bbb_fixture.go", d.Pos.Filename)
	}
	if want := "already registered at aaa_fixture.go"; !strings.Contains(d.Message, want) {
		t.Errorf("message %q does not mention %q", d.Message, want)
	}
}

func TestErrwrapFixture(t *testing.T) {
	analysis.RunFixture(t, Errwrap,
		"progressdb/internal/faultinject",
		"testdata/errwrap/wrap.go")
}

// TestErrwrapMainExempt: package main may fail fast with panic.
func TestErrwrapMainExempt(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{Errwrap},
		"progressdb/examples/fixture", "main_fixture.go", `
package main

func run(err error) {
	if err != nil {
		panic(err)
	}
}
`)
}

func TestLockdiscFixture(t *testing.T) {
	analysis.RunFixture(t, Lockdisc,
		"progressdb/internal/server",
		"testdata/lockdisc/locks.go")
}

func TestLockdiscOrderingFixture(t *testing.T) {
	analysis.RunFixture(t, Lockdisc,
		"progressdb/internal/server",
		"testdata/lockdisc/ordering.go")
}

// TestLockdiscDirectiveErrors: a lockorder directive without the
// `A < B` shape is itself a finding.
func TestLockdiscDirectiveErrors(t *testing.T) {
	m, err := analysis.FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := m.CheckSource("progressdb/internal/server", "order_directive_fixture.go", `
package fixture

//lint:lockorder job.mu subscriber.mu
`)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(m.Fset, []*analysis.Package{pkg}, []*analysis.Analyzer{Lockdisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed lock-order directive") {
		t.Fatalf("got %v, want one malformed-directive diagnostic", diags)
	}
}

// TestAllCleanOnFixturelessSource is a smoke check that the full suite
// coexists on one innocuous package.
func TestAllCleanOnFixturelessSource(t *testing.T) {
	analysis.RunSource(t, All(),
		"progressdb/internal/plan", "plan_fixture.go", `
package fixture

import "fmt"

func describe(n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("fixture: negative %d", n)
	}
	return fmt.Sprintf("n=%d", n), nil
}
`)
}
