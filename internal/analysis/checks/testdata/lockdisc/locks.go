// The lockdisc rule: nothing blocks while a lock is held. Lock identity
// in the diagnostics is the receiver's final field ("<pkg>.counter.mu"
// here).
package fixture

import (
	"errors"
	"os"
	"sync"
	"time"
)

var errFixture = errors.New("fixture")

type counter struct {
	mu sync.Mutex
	n  int
}

// ok: the canonical defer pattern.
func (c *counter) ok() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// okExplicit: explicit unwinding without a defer — the error branch
// unlocks before returning, the fall-through path unlocks at the end.
func (c *counter) okExplicit(fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errFixture
	}
	c.n++
	c.mu.Unlock()
	return nil
}

// sleepAfterUnlock: the critical section ends at the Unlock.
func (c *counter) sleepAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// sleepUnderLock blocks directly in the critical section.
func (c *counter) sleepUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want `blocking time\.Sleep while .*counter\.mu is held`
}

// writeUnderLock does storage I/O in the critical section.
func (c *counter) writeUnderLock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.Sync() // want `blocking os\.File I/O \(Sync\) while .*counter\.mu is held`
}

func persist(f *os.File) error { return f.Sync() }

func save(f *os.File) error { return persist(f) }

// transitiveBlock reaches the I/O through one call.
func (c *counter) transitiveBlock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	persist(f) // want `counter\.mu is held across a call to .*persist, which transitively blocks`
}

// transitiveBlockDeep reaches it through two calls.
func (c *counter) transitiveBlockDeep(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	save(f) // want `counter\.mu is held across a call to .*save, which transitively blocks`
}

// invokedLitUnderLock: a literal invoked on the spot runs inside the
// critical section, so what its body reaches counts.
func (c *counter) invokedLitUnderLock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	func() {
		save(f) // want `counter\.mu is held across a call to .*save, which transitively blocks`
	}()
}

// persistVia's literal is part of persistVia: calling persistVia blocks.
func persistVia(f *os.File) {
	do := func() { persist(f) }
	do()
}

func (c *counter) litBlockUnderLock(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	persistVia(f) // want `counter\.mu is held across a call to .*persistVia, which transitively blocks \(os\.File I/O \(Sync\) in .*persist\)`
}

// chanUnderLock / recvUnderLock / selectUnderLock: channel rendezvous
// in the critical section.
func (c *counter) chanUnderLock(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- 1 // want `blocking channel send while .*counter\.mu is held`
}

func (c *counter) recvUnderLock(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	<-ch // want `blocking channel receive while .*counter\.mu is held`
}

func (c *counter) selectUnderLock(ch chan int, quit chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want `blocking select without default while .*counter\.mu is held`
	case ch <- 1:
	case <-quit:
	}
}

// nonBlockingSelect: a select with default is a non-blocking attempt
// and passes.
func (c *counter) nonBlockingSelect(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// dynamicUnderLock: calls through bare function values may block and
// cannot be seen through.
func (c *counter) dynamicUnderLock(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn() // want `call through function value fn while .*counter\.mu is held may block`
}

// notifier: a func-typed field is as dynamic as a bare function value.
type notifier struct {
	mu      sync.Mutex
	onEvent func(int)
	n       int
}

func (nf *notifier) fire() {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.onEvent(nf.n) // want `call through function value nf\.onEvent while .*notifier\.mu is held may block`
}

func invoke(fn func()) { fn() }

// transitiveDynamic: the opaque callback invocation hides one call away
// — the shape of the fleet aggregator bug this analyzer caught.
func (c *counter) transitiveDynamic(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	invoke(fn) // want `counter\.mu is held across a call to .*invoke, which calls through the function value fn`
}

func (c *counter) waitUnderLock(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want `blocking sync\.WaitGroup\.Wait while .*counter\.mu is held`
}

// goUnderLock: a goroutine launched in the critical section does not
// inherit the lock; its blocking body is not a finding here.
func (c *counter) goUnderLock(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() { <-ch }()
	c.n++
}

// coarse opts its lock out of the blocking rule: deliberate whole-region
// serialization, like the fleet's per-shard lock.
type coarse struct {
	//lint:lockcoarse the fixture's lock serializes slow work on purpose
	mu sync.Mutex
}

func (c *coarse) slow(f *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond)
	persist(f)
}
