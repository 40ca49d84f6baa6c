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
//
// Time is an integer count of ticks (1 tick = 1 ps), so charges add
// associatively and a run of CPU charges applies as one sum; seconds
// convert saturating at the last tick, about 106 virtual days.
package vclock

import (
	"fmt"
	"math"
	"math/bits"
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

// baseTicks returns the unloaded cost of one unit of each kind, in ticks.
func (c Costs) baseTicks() [3]int64 {
	return [3]int64{SeqIO: round(c.SeqPage * ticksPerSecond),
		RandIO: round(c.RandPage * ticksPerSecond), CPU: round(c.CPUTuple * ticksPerSecond)}
}

const (
	ticksPerSecond = 1e12
	// never is the tick time does not pass: the end of the last profile
	// span, and the next fire of a ticker whose period saturated.
	never = math.MaxInt64
)

// round converts x to the nearest whole tick, saturating at ±never.
func round(x float64) int64 {
	if x >= never {
		return never
	}
	return int64(math.Round(max(x, -never)))
}

func seconds(t int64) float64 { return float64(t) / ticksPerSecond }

// loaded returns the ticks one unit costing b base ticks takes at factor f.
func loaded(b int64, f float64) int64 { return round(float64(b) * f) }

// mulDiv returns a·b/c rounded down, for non-negative a and b and positive
// c, saturating at never.
func mulDiv(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return never
	}
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int64(min(q, never))
}

// satAdd returns a+b for non-negative a and b, saturating at never.
func satAdd(a, b int64) int64 { return a + min(b, never-a) }

// units converts w base ticks to units of b (a free kind counts no work).
func units(w, b int64) float64 { return float64(w) / float64(max(b, 1)) }

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

// factorAt returns the slowdown factor for kind at tick t and the tick at
// which that factor next changes (never if it does not).
func (p *LoadProfile) factorAt(t int64, kind WorkKind) (factor float64, until int64) {
	if p == nil {
		return 1, never
	}
	for _, iv := range p.intervals {
		if start := round(iv.Start * ticksPerSecond); t < start {
			return 1, start
		}
		if end := round(iv.End * ticksPerSecond); t < end {
			return iv.factor(kind), end
		}
	}
	return 1, never
}

// Ticker is a callback registered with a Clock that fires at a fixed
// virtual period. Fires happen synchronously inside Advance, in tick-time
// order, with the tick's nominal time (an exact multiple of the period plus
// the registration time).
type Ticker struct {
	period, next int64
	fn           func(now float64)
}

// Clock is a deterministic virtual clock. It is not safe for concurrent
// use; the engine is single-threaded by design (as was the paper's
// per-query execution).
type Clock struct {
	// ChargeCPU's batch: pend CPU units charged since the last settle,
	// not yet in now or work. pend < room always holds, where room is the
	// fewest units whose cost at cpu ticks each reaches the horizon — the
	// earlier of the next profile boundary and the next tick — so the
	// batch ends short of both and settling it is one multiply-add.
	// Everything that reads or moves time settles first; shrinking the
	// horizon (AddTicker, SetProfile) also recomputes room.
	pend, room int64
	cpu        int64 // loaded ticks per CPU unit in the current profile span

	now     int64    // settled virtual time, in ticks
	base    [3]int64 // unloaded ticks per unit, by kind
	work    [3]int64 // settled work charged, by kind, in base ticks
	costs   Costs
	profile *LoadProfile
	tickers []*Ticker

	// group, when non-nil, is the shared time authority this clock
	// publishes into on Sync; synced tracks the work already published
	// so Sync only pushes the delta. syncMu serializes concurrent Sync
	// calls (DB.Now and query starts may sync the engine's base clock
	// from several goroutines; charging stays single-owner by contract).
	group  *Group
	syncMu sync.Mutex // guards synced and settling in Sync
	synced [3]int64
}

// New returns a clock at virtual time zero with the given base costs and
// load profile. A nil profile means an unloaded system.
func New(costs Costs, profile *LoadProfile) *Clock {
	c := &Clock{costs: costs, profile: profile, base: costs.baseTicks()}
	c.setRoom()
	return c
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return seconds(c.now + c.pend*c.cpu) }

// SetProfile replaces the load profile from the current time onward
// (used to start interference relative to a query's start time).
func (c *Clock) SetProfile(p *LoadProfile) {
	c.settle()
	c.profile = p
	c.setRoom()
}

// Costs returns the clock's base cost table.
func (c *Clock) Costs() Costs { return c.costs }

// UnitsOf returns the total units of the given work kind charged so far.
func (c *Clock) UnitsOf(kind WorkKind) float64 {
	c.settle()
	return units(c.work[kind], c.base[kind])
}

// AddTicker registers fn to fire every period virtual seconds, starting one
// period from now. It returns the ticker so it can be removed. A period
// beyond the clock's range never fires.
func (c *Clock) AddTicker(period float64, fn func(now float64)) *Ticker {
	p := round(period * ticksPerSecond)
	if !(period > 0) || p <= 0 {
		//lint:ignore errwrap sanctioned: a non-positive period would spin the virtual clock forever; programmer error at wiring time
		panic("vclock: non-positive ticker period")
	}
	c.settle()
	t := &Ticker{period: p, next: satAdd(c.now, p), fn: fn}
	c.tickers = append(c.tickers, t)
	c.setRoom()
	return t
}

// RemoveTicker unregisters t. The horizon can only move later, so room
// stays valid.
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
// any tickers whose nominal fire times are crossed. A fractional n costs
// its exact share, rounded to the nearest base tick.
func (c *Clock) Charge(kind WorkKind, n float64) {
	if n > 0 {
		c.settle()
		c.advance(kind, round(n*float64(c.base[kind])))
	}
}

// ChargeSeqIO charges pages sequential page I/Os.
func (c *Clock) ChargeSeqIO(pages int) { c.chargeUnits(SeqIO, int64(pages)) }

// ChargeRandIO charges pages random page I/Os.
func (c *Clock) ChargeRandIO(pages int) { c.chargeUnits(RandIO, int64(pages)) }

// ChargeCPU charges n tuple-units of CPU work. A charge that keeps the
// batch short of the horizon only adds to pend; this path must stay
// inlinable, which ci.sh checks.
func (c *Clock) ChargeCPU(n int64) {
	if uint64(n) < uint64(c.room-c.pend) { // a negative n goes slow, and is ignored there
		c.pend += n
		return
	}
	c.chargeUnits(CPU, n)
}

// chargeUnits charges n whole units: ChargeCPU's slow path, kept out of line.
//
//go:noinline
func (c *Clock) chargeUnits(kind WorkKind, n int64) {
	if n > 0 {
		c.settle()
		c.advance(kind, mulDiv(n, c.base[kind], 1))
	}
}

// settle applies the pending CPU batch. It ends before the horizon, so
// nothing fires and the span's rate held throughout.
func (c *Clock) settle() {
	if c.pend == 0 {
		return
	}
	c.now += c.pend * c.cpu
	c.work[CPU] += c.pend * c.base[CPU]
	c.room -= c.pend
	c.pend = 0
}

// Sync publishes this clock's progress into its Group: the group time
// max-merges with the clock's now, and work totals accumulate the delta
// since the previous Sync. A no-op for clocks without a group. Sync is
// called from the owning worker only; the group side is concurrency-
// safe.
func (c *Clock) Sync() {
	if c.group == nil {
		return
	}
	c.syncMu.Lock()
	c.settle()
	c.group.merge(c.now)
	for k := range c.work {
		if d := c.work[k] - c.synced[k]; d > 0 {
			c.group.work[k].Add(d)
			c.synced[k] = c.work[k]
		}
	}
	c.syncMu.Unlock()
}

// Idle advances the clock by d virtual seconds without charging work (used
// to model think time between queries).
func (c *Clock) Idle(d float64) {
	if d > 0 {
		c.settle()
		c.moveTo(satAdd(c.now, round(d*ticksPerSecond)))
		c.setRoom()
	}
}

// advance consumes w base ticks of work of the given kind, stretching
// each profile span's share by its load factor. Within a span w costs
// w·loaded/base ticks, rounded down, so whole units cost whole loaded
// ticks; one large charge and its units charged one by one agree to a
// tick per boundary crossed.
func (c *Clock) advance(kind WorkKind, w int64) {
	c.work[kind] += w
	b := c.base[kind]
	for w > 0 {
		f, until := c.profile.factorAt(c.now, kind)
		l := loaded(b, f)
		if d := mulDiv(w, l, b); d < until-c.now || until == never {
			c.moveTo(satAdd(c.now, d))
			break
		}
		w -= mulDiv(until-c.now, b, l) // work that fits before the boundary
		c.moveTo(until)
	}
	c.setRoom()
}

// setRoom recomputes the CPU batch's rate and bound for the current now,
// profile and tickers.
func (c *Clock) setRoom() {
	f, h := c.profile.factorAt(c.now, CPU)
	for _, tk := range c.tickers {
		h = min(h, tk.next)
	}
	c.cpu, c.room = loaded(c.base[CPU], f), 0
	if span := h - c.now; c.cpu == 0 {
		c.room = never
	} else if span > 0 {
		c.room = (span-1)/c.cpu + 1
	}
}

// moveTo sets the clock to t (monotonically) and fires crossed ticks in
// global time order.
func (c *Clock) moveTo(t int64) {
	for {
		// Find the earliest pending tick at or before t.
		var earliest *Ticker
		for _, tk := range c.tickers {
			if tk.next <= t && tk.next != never && (earliest == nil || tk.next < earliest.next) {
				earliest = tk
			}
		}
		if earliest == nil {
			break
		}
		c.now = earliest.next
		earliest.next = satAdd(earliest.next, earliest.period)
		c.room = 0 // a charge from the callback takes the slow path
		earliest.fn(seconds(c.now))
		c.settle() // and a batch it charged after AddTicker ends here
	}
	c.now = max(c.now, t)
}
