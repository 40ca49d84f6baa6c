package checks

import (
	"strings"
	"testing"

	"progressdb/internal/analysis"
)

// Each fixture both proves the analyzer fires (a missed want fails the
// test, so the fixture fails without the analyzer) and pins down what
// it must NOT flag (any extra diagnostic fails the test too).

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

// TestLockdiscGoLaunch: a goroutine launched in a critical section runs
// outside it. The same blocking callee is flagged when called
// synchronously, so the go-launched cases are seen and excluded, not
// missed; a go-launched literal is likewise not part of its definer.
func TestLockdiscGoLaunch(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{Lockdisc},
		"progressdb/internal/server", "go_launch_fixture.go", `
package fixture

import (
	"os"
	"sync"
)

type counter struct{ mu sync.Mutex }

func persist(f *os.File) error { return f.Sync() }

func (c *counter) callUnderLock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	persist(f) // want "counter.mu is held across a call to .*persist, which transitively blocks"
}

func (c *counter) goCallUnderLock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go persist(f)
}

func spawn(ch chan int) { go func() { <-ch }() }

func (c *counter) spawnUnderLock(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spawn(ch)
}
`)
}

// TestLockdiscCoarseDirective: the lockcoarse directive must carry a
// reason and sit on a mutex field.
func TestLockdiscCoarseDirective(t *testing.T) {
	analysis.RunSource(t, []*analysis.Analyzer{Lockdisc},
		"progressdb/internal/server", "coarse_fixture.go", `
package fixture

import "sync"

type badcoarse struct {
	//lint:lockcoarse
	mu sync.Mutex // want "lint:lockcoarse needs a reason"
	//lint:lockcoarse the counter is not a lock
	n int // want "lint:lockcoarse on a non-mutex field has no effect"
}
`)
}

// TestLockdiscCrossPackage proves blocking is resolved across packages
// and against visit order: a lock in a sorted-earlier package is held
// across a call into a sorted-later one that reaches WaitGroup.Wait two
// calls deep. The caller sees the callee through export data, and the
// second package stands in for its source — as in a progresslint run,
// where each package is type-checked from source and its imports come
// from export data — so the function keys must line up across the two.
func TestLockdiscCrossPackage(t *testing.T) {
	m, err := analysis.FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	caller, err := m.CheckSource("progressdb/internal/server", "server_lock_fixture.go", `
package server

import (
	"sync"

	"progressdb/internal/storage"
)

type flusher struct {
	mu sync.Mutex
	bp *storage.BufferPool
}

func (f *flusher) flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bp.Flush()
}
`)
	if err != nil {
		t.Fatal(err)
	}
	callee, err := m.CheckSource("progressdb/internal/storage", "storage_wait_fixture.go", `
package storage

import "sync"

type BufferPool struct{ wg sync.WaitGroup }

func (bp *BufferPool) Flush() error { return bp.drain() }

func (bp *BufferPool) drain() error {
	bp.wg.Wait()
	return nil
}
`)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(m.Fset, []*analysis.Package{callee, caller}, []*analysis.Analyzer{Lockdisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Filename != "server_lock_fixture.go" {
		t.Errorf("reported at %s, want the held call in server_lock_fixture.go", d.Pos.Filename)
	}
	want := "server.flusher.mu is held across a call to (*storage.BufferPool).Flush, " +
		"which transitively blocks (sync.WaitGroup.Wait in (*storage.BufferPool).drain)"
	if !strings.Contains(d.Message, want) {
		t.Errorf("message %q does not contain %q", d.Message, want)
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

// TestModuleLintClean runs the whole suite over the module's own
// packages, so `go test ./...` fails on a lint regression just as
// progresslint does.
func TestModuleLintClean(t *testing.T) {
	m, err := analysis.FixtureModule()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(m.Fset, m.Packages, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
