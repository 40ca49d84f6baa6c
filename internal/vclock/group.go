// Multi-worker story for the virtual clock.
//
// A Group is the shared time authority for a set of per-worker Clocks.
// Each worker charges its own Clock — single-threaded, deterministic,
// exactly as before — and publishes into the Group at well-defined sync
// points (segment boundaries, report snapshots, query end) via
// Clock.Sync. The Group merges by taking the maximum published time, so
// the group's Now is monotone no matter how workers interleave, and it
// accumulates per-kind work with atomic adds. A worker clock created
// with Group.Worker starts at the group's current merged time, which
// makes a strictly sequential run reproduce the exact absolute timeline
// of the old single-clock engine.
package vclock

import (
	"sync"
	"sync/atomic"
)

// Group is the shared, concurrency-safe time authority behind a set of
// per-worker Clocks. Its merged time only moves forward (max-merge), and
// work totals only grow, so readers see monotone values without locks.
type Group struct {
	costs Costs
	base  [3]int64

	now  atomic.Int64    // max-merged virtual time, in ticks
	work [3]atomic.Int64 // total work per WorkKind, in base ticks

	mu      sync.Mutex // guards profile
	profile *LoadProfile
}

// NewGroup returns a group at virtual time zero with the given base
// costs and no load profile.
func NewGroup(costs Costs) *Group {
	return &Group{costs: costs, base: costs.baseTicks()}
}

// Costs returns the group's base cost table.
func (g *Group) Costs() Costs { return g.costs }

// Now returns the max-merged virtual time across all workers, as of
// their last Sync. It is monotone non-decreasing.
func (g *Group) Now() float64 { return seconds(g.now.Load()) }

// UnitsOf returns the total units of the given work kind published by
// all workers so far.
func (g *Group) UnitsOf(kind WorkKind) float64 {
	return units(g.work[kind].Load(), g.base[kind])
}

// SetProfile replaces the load profile that new worker clocks start
// with. Workers already running keep the profile they were created
// with; the engine applies profile changes between queries.
func (g *Group) SetProfile(p *LoadProfile) {
	g.mu.Lock()
	g.profile = p
	g.mu.Unlock()
}

// Profile returns the load profile new workers start with.
func (g *Group) Profile() *LoadProfile {
	g.mu.Lock()
	p := g.profile
	g.mu.Unlock()
	return p
}

// Worker returns a new per-worker Clock bound to the group. The clock
// starts at the group's current merged time and carries the group's
// profile; it is single-threaded like any Clock, and publishes into the
// group on Sync.
func (g *Group) Worker() *Clock {
	c := New(g.costs, g.Profile())
	c.now = g.now.Load()
	c.group = g
	c.setRoom()
	return c
}

// merge advances the group time to t if t is ahead (CAS max-merge).
func (g *Group) merge(t int64) {
	for {
		old := g.now.Load()
		if old >= t || g.now.CompareAndSwap(old, t) {
			return
		}
	}
}
