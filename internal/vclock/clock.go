// Package vclock provides a deterministic virtual clock for the simulated
// database engine.
//
// All "time" in this repository is virtual: operators charge the clock for
// page I/Os and per-tuple CPU work, and the clock advances by the cost of
// that work under the currently active load profile. This design replaces
// the paper's wall-clock measurements on a 2004-era Dell Inspiron with a
// reproducible simulation whose rates are calibrated so that the figures'
// time axes are comparable to the paper's.
//
// Load interference (the paper's concurrent file copy and CPU-intensive
// program) is modeled as piecewise-constant rate multipliers: during an
// interference interval each unit of I/O or CPU work takes a constant
// factor longer. Work that straddles an interval boundary is integrated
// piecewise, so a single large Advance behaves identically to many small
// ones.
package vclock

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// WorkKind classifies chargeable work so load profiles can slow I/O and CPU
// independently.
type WorkKind int

const (
	// SeqIO is a sequential page read or write.
	SeqIO WorkKind = iota
	// RandIO is a random page read or write.
	RandIO
	// CPU is tuple-processing work (predicate evaluation, hashing,
	// comparison, copying).
	CPU
)

// String returns a human-readable name for the work kind.
func (k WorkKind) String() string {
	switch k {
	case SeqIO:
		return "seq-io"
	case RandIO:
		return "rand-io"
	case CPU:
		return "cpu"
	default:
		return fmt.Sprintf("WorkKind(%d)", int(k))
	}
}

// Costs holds the base cost, in virtual seconds, of one unit of each work
// kind on an unloaded system. The defaults are calibrated so that the
// default experiment scale reproduces time axes comparable to the paper's
// figures (sequential scan of lineitem ≈ 100 virtual seconds).
type Costs struct {
	// SeqPage is the cost of one sequential page I/O.
	SeqPage float64
	// RandPage is the cost of one random page I/O.
	RandPage float64
	// CPUTuple is the cost of processing one tuple through one operator.
	CPUTuple float64
}

// DefaultCosts returns the calibrated base costs used by the experiment
// harness. One sequential 8 KiB page per ~0.8 ms gives ≈ 9.8 MB/s, close to
// the paper's IDE-disk scan rate; random I/O is ~8x more expensive; CPU
// work is cheap relative to I/O so that only the cross-product query Q5 is
// CPU-bound, as in the paper.
func DefaultCosts() Costs {
	return Costs{
		SeqPage:  0.8e-3,
		RandPage: 6.4e-3,
		CPUTuple: 2.0e-6,
	}
}

// Interval is one piece of a load profile: between Start (inclusive) and
// End (exclusive), each unit of the affected work kinds takes Factor times
// longer than on an unloaded system.
type Interval struct {
	Start, End float64
	// IOFactor slows SeqIO and RandIO; 1 means unloaded.
	IOFactor float64
	// CPUFactor slows CPU work; 1 means unloaded.
	CPUFactor float64
}

func (iv Interval) factor(kind WorkKind) float64 {
	switch kind {
	case CPU:
		if iv.CPUFactor > 0 {
			return iv.CPUFactor
		}
	default:
		if iv.IOFactor > 0 {
			return iv.IOFactor
		}
	}
	return 1
}

// LoadProfile is a set of non-overlapping interference intervals. The zero
// value is an unloaded system.
type LoadProfile struct {
	intervals []Interval
}

// NewLoadProfile builds a profile from the given intervals, sorted by start
// time. Intervals must not overlap.
func NewLoadProfile(intervals ...Interval) (*LoadProfile, error) {
	sorted := make([]Interval, len(intervals))
	copy(sorted, intervals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, iv := range sorted {
		if iv.End <= iv.Start {
			return nil, fmt.Errorf("vclock: interval %d has End %g <= Start %g", i, iv.End, iv.Start)
		}
		if i > 0 && iv.Start < sorted[i-1].End {
			return nil, fmt.Errorf("vclock: interval %d overlaps previous", i)
		}
	}
	return &LoadProfile{intervals: sorted}, nil
}

// factorAt returns the slowdown factor for kind at time t and the time at
// which that factor next changes (math.Inf(1) if it never does).
func (p *LoadProfile) factorAt(t float64, kind WorkKind) (factor, until float64) {
	if p == nil {
		return 1, math.Inf(1)
	}
	for _, iv := range p.intervals {
		if t < iv.Start {
			return 1, iv.Start
		}
		if t < iv.End {
			return iv.factor(kind), iv.End
		}
	}
	return 1, math.Inf(1)
}

// Ticker is a callback registered with a Clock that fires at a fixed
// virtual period. Fires happen synchronously inside Advance, in tick-time
// order, with the tick's nominal time (an exact multiple of the period plus
// the registration time).
type Ticker struct {
	period float64
	next   float64
	fn     func(now float64)
}

// Clock is a deterministic virtual clock. It is not safe for concurrent
// use; the engine is single-threaded by design (as was the paper's
// per-query execution).
type Clock struct {
	now     float64
	costs   Costs
	profile *LoadProfile
	tickers []*Ticker

	// Work accounting, by kind, in units (pages or tuples).
	units [3]float64

	// Charge's fast path. While now < horizon no ticker is due and the
	// load profile's factors, cached per kind in factor, hold until until;
	// horizon = min(until, earliest ticker fire). A charge ending before
	// horizon is therefore advance's single-span branch with nothing for
	// moveTo to fire, and Charge evaluates that branch's expression
	// itself. A horizon at or behind now serves no charge, so the zero
	// value means "not known" and the charge that finds out recomputes
	// it. Time moving on (Idle, ticks firing) or a ticker leaving only
	// ever leaves horizon too early, which is safe; a new ticker or a new
	// profile could leave it too late, so AddTicker and SetProfile zero it.
	horizon float64
	until   float64
	factor  [3]float64

	// group, when non-nil, is the shared time authority this clock
	// publishes into on Sync; synced tracks the units already published
	// so Sync only pushes the delta. syncMu serializes concurrent Sync
	// calls (DB.Now and query starts may sync the engine's base clock
	// from several goroutines; charging stays single-owner by contract).
	group  *Group
	syncMu sync.Mutex // guards synced
	synced [3]float64
}

// New returns a clock at virtual time zero with the given base costs and
// load profile. A nil profile means an unloaded system.
func New(costs Costs, profile *LoadProfile) *Clock {
	return &Clock{costs: costs, profile: profile}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// SetProfile replaces the load profile from the current time onward
// (used to start interference relative to a query's start time).
func (c *Clock) SetProfile(p *LoadProfile) {
	c.profile = p
	c.horizon = 0
}

// Costs returns the clock's base cost table.
func (c *Clock) Costs() Costs { return c.costs }

// UnitsOf returns the total units of the given work kind charged so far.
func (c *Clock) UnitsOf(kind WorkKind) float64 { return c.units[kind] }

// AddTicker registers fn to fire every period virtual seconds, starting one
// period from now. It returns the ticker so it can be removed.
func (c *Clock) AddTicker(period float64, fn func(now float64)) *Ticker {
	if period <= 0 {
		//lint:ignore errwrap sanctioned: a non-positive period would spin the virtual clock forever; programmer error at wiring time
		panic("vclock: non-positive ticker period")
	}
	t := &Ticker{period: period, next: c.now + period, fn: fn}
	c.tickers = append(c.tickers, t)
	c.horizon = 0
	return t
}

// RemoveTicker unregisters t.
func (c *Clock) RemoveTicker(t *Ticker) {
	for i, x := range c.tickers {
		if x == t {
			c.tickers = append(c.tickers[:i], c.tickers[i+1:]...)
			return
		}
	}
}

// Charge advances the clock by the cost of n units of the given work kind,
// integrating the cost piecewise across load-profile boundaries and firing
// any tickers whose nominal fire times are crossed.
func (c *Clock) Charge(kind WorkKind, n float64) {
	if n <= 0 {
		return
	}
	c.units[kind] += n
	base := n * c.unitCost(kind)
	// Fast path: what advance and moveTo below would do when the charge
	// fits the current profile span and crosses no tick. With factor 1
	// advance's fit test, (until-now)/1 >= base, follows from t < until
	// (rounding is monotone); with any other factor the division may round
	// the other way within an ulp of the boundary, so the test itself is
	// evaluated. A NaN or infinite charge fails t < horizon.
	f := c.factor[kind]
	if t := c.now + base*f; t < c.horizon && (f == 1 || (c.until-c.now)/f >= base) {
		c.now = t
		return
	}
	c.advance(base, kind)
	c.setHorizon()
}

// setHorizon recomputes the fast path's cache for the current now,
// profile and tickers.
func (c *Clock) setHorizon() {
	io, until := c.profile.factorAt(c.now, SeqIO)
	cpu, _ := c.profile.factorAt(c.now, CPU)
	c.factor = [3]float64{SeqIO: io, RandIO: io, CPU: cpu}
	c.until = until
	c.horizon = until
	for _, tk := range c.tickers {
		if tk.next < c.horizon {
			c.horizon = tk.next
		}
	}
}

// ChargeSeqIO charges pages sequential page I/Os.
func (c *Clock) ChargeSeqIO(pages int) { c.Charge(SeqIO, float64(pages)) }

// ChargeRandIO charges pages random page I/Os.
func (c *Clock) ChargeRandIO(pages int) { c.Charge(RandIO, float64(pages)) }

// ChargeCPU charges n tuple-units of CPU work.
func (c *Clock) ChargeCPU(n float64) { c.Charge(CPU, n) }

// Sync publishes this clock's progress into its Group: the group time
// max-merges with the clock's now, and unit totals accumulate the delta
// since the previous Sync. A no-op for clocks without a group. Sync is
// called from the owning worker only; the group side is concurrency-
// safe.
func (c *Clock) Sync() {
	if c.group == nil {
		return
	}
	c.syncMu.Lock()
	c.group.merge(c.now)
	for k := range c.units {
		if d := c.units[k] - c.synced[k]; d > 0 {
			c.group.addUnits(WorkKind(k), d)
			c.synced[k] = c.units[k]
		}
	}
	c.syncMu.Unlock()
}

// Idle advances the clock by d virtual seconds without charging work (used
// to model think time between queries).
func (c *Clock) Idle(d float64) {
	if d <= 0 {
		return
	}
	c.moveTo(c.now + d)
}

func (c *Clock) unitCost(kind WorkKind) float64 {
	switch kind {
	case SeqIO:
		return c.costs.SeqPage
	case RandIO:
		return c.costs.RandPage
	default:
		return c.costs.CPUTuple
	}
}

// advance consumes base seconds of unloaded-system work of the given kind,
// stretching it by the active load factors.
func (c *Clock) advance(base float64, kind WorkKind) {
	remaining := base
	for remaining > 0 {
		factor, until := c.profile.factorAt(c.now, kind)
		span := until - c.now
		consumable := span / factor // unloaded-seconds of work that fit before the boundary
		if consumable >= remaining || math.IsInf(span, 1) {
			c.moveTo(c.now + remaining*factor)
			return
		}
		remaining -= consumable
		c.moveTo(until)
	}
}

// moveTo sets the clock to t (monotonically) and fires crossed ticks in
// global time order.
func (c *Clock) moveTo(t float64) {
	for {
		// Find the earliest pending tick at or before t.
		var earliest *Ticker
		for _, tk := range c.tickers {
			if tk.next <= t && (earliest == nil || tk.next < earliest.next) {
				earliest = tk
			}
		}
		if earliest == nil {
			break
		}
		c.now = earliest.next
		earliest.next += earliest.period
		earliest.fn(c.now)
	}
	if t > c.now {
		c.now = t
	}
}
