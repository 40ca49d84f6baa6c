package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// mustProfile builds a LoadProfile from static literals, failing the
// test on error (the library itself no longer has a panicking variant).
func mustProfile(t *testing.T, intervals ...Interval) *LoadProfile {
	t.Helper()
	p, err := NewLoadProfile(intervals...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnloadedAdvance(t *testing.T) {
	c := New(Costs{SeqPage: 0.01, RandPage: 0.05, CPUTuple: 1e-4}, nil)
	c.ChargeSeqIO(100)
	if !almost(c.Now(), 1.0) {
		t.Fatalf("after 100 seq pages: now = %g, want 1.0", c.Now())
	}
	c.ChargeRandIO(10)
	if !almost(c.Now(), 1.5) {
		t.Fatalf("after 10 rand pages: now = %g, want 1.5", c.Now())
	}
	c.ChargeCPU(1000)
	if !almost(c.Now(), 1.6) {
		t.Fatalf("after 1000 cpu units: now = %g, want 1.6", c.Now())
	}
	if c.UnitsOf(SeqIO) != 100 || c.UnitsOf(RandIO) != 10 || c.UnitsOf(CPU) != 1000 {
		t.Fatalf("unit accounting wrong: %v %v %v", c.UnitsOf(SeqIO), c.UnitsOf(RandIO), c.UnitsOf(CPU))
	}
}

func TestChargeZeroOrNegative(t *testing.T) {
	c := New(DefaultCosts(), nil)
	c.Charge(SeqIO, 0)
	c.Charge(CPU, -5)
	if c.Now() != 0 {
		t.Fatalf("zero/negative charges must not advance time; now = %g", c.Now())
	}
}

func TestLoadProfileValidation(t *testing.T) {
	if _, err := NewLoadProfile(Interval{Start: 5, End: 5, IOFactor: 2}); err == nil {
		t.Fatal("empty interval must be rejected")
	}
	if _, err := NewLoadProfile(
		Interval{Start: 0, End: 10, IOFactor: 2},
		Interval{Start: 5, End: 15, IOFactor: 2},
	); err == nil {
		t.Fatal("overlapping intervals must be rejected")
	}
	if _, err := NewLoadProfile(
		Interval{Start: 10, End: 20, IOFactor: 2},
		Interval{Start: 0, End: 5, CPUFactor: 3},
	); err != nil {
		t.Fatalf("disjoint intervals in any order must be accepted: %v", err)
	}
}

func TestInterferenceSlowdown(t *testing.T) {
	// I/O is 4x slower between t=1 and t=3.
	p := mustProfile(t, Interval{Start: 1, End: 3, IOFactor: 4})
	c := New(Costs{SeqPage: 0.01, RandPage: 0.01, CPUTuple: 0.01}, p)

	// 100 pages of base work = 1.0s fits exactly before the interval.
	c.ChargeSeqIO(100)
	if !almost(c.Now(), 1.0) {
		t.Fatalf("pre-interval: now = %g, want 1.0", c.Now())
	}
	// 25 pages = 0.25s base takes 1.0s under 4x slowdown.
	c.ChargeSeqIO(25)
	if !almost(c.Now(), 2.0) {
		t.Fatalf("mid-interval: now = %g, want 2.0", c.Now())
	}
	// CPU is unaffected by IOFactor.
	c.ChargeCPU(10) // 0.1s base
	if !almost(c.Now(), 2.1) {
		t.Fatalf("cpu during io-interference: now = %g, want 2.1", c.Now())
	}
	// 100 pages base = 1.0s: 0.9s of wall time remains in the interval,
	// consuming 0.225s of work; remaining 0.775s runs unloaded after t=3.
	c.ChargeSeqIO(100)
	if !almost(c.Now(), 3.775) {
		t.Fatalf("straddling boundary: now = %g, want 3.775", c.Now())
	}
}

func TestCPUInterference(t *testing.T) {
	p := mustProfile(t, Interval{Start: 0, End: 10, CPUFactor: 2})
	c := New(Costs{SeqPage: 0.01, RandPage: 0.01, CPUTuple: 0.01}, p)
	c.ChargeCPU(100) // 1s base -> 2s loaded
	if !almost(c.Now(), 2.0) {
		t.Fatalf("cpu slowdown: now = %g, want 2.0", c.Now())
	}
	c.ChargeSeqIO(100) // io unaffected by CPUFactor
	if !almost(c.Now(), 3.0) {
		t.Fatalf("io during cpu-interference: now = %g, want 3.0", c.Now())
	}
}

func TestStraddleSplitEquivalence(t *testing.T) {
	// Advancing in one big charge must land at the same time as many
	// small charges — the piecewise integration invariant.
	p := mustProfile(t,
		Interval{Start: 0.5, End: 1.5, IOFactor: 3},
		Interval{Start: 2.0, End: 4.0, IOFactor: 7},
	)
	one := New(Costs{SeqPage: 0.001, RandPage: 0.001, CPUTuple: 0.001}, p)
	one.ChargeSeqIO(3000)

	many := New(Costs{SeqPage: 0.001, RandPage: 0.001, CPUTuple: 0.001}, p)
	for i := 0; i < 3000; i++ {
		many.ChargeSeqIO(1)
	}
	if one.Now() != many.Now() || one.UnitsOf(SeqIO) != many.UnitsOf(SeqIO) {
		t.Fatalf("one big charge = %v s (%v pages), 3000 small charges = %v s (%v pages)",
			one.Now(), one.UnitsOf(SeqIO), many.Now(), many.UnitsOf(SeqIO))
	}
}

// Seconds beyond the clock's range saturate at its last tick: a ticker
// whose period is out of range never fires, idling or charging past the
// range stops there, and an interval ending past it lasts to the end.
// Nothing wraps negative, loops or runs time backwards.
func TestTicksSaturate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile *LoadProfile
	}{
		{"unloaded", nil},
		{"interval ending past int64", mustProfile(t, Interval{Start: 1, End: 1e30, IOFactor: 2, CPUFactor: 3})},
	} {
		c := New(DefaultCosts(), tc.profile)
		fired := 0
		for _, period := range []float64{1e9, math.Inf(1)} {
			c.AddTicker(TicksOf(period), func(int64) { fired++ })
		}
		prev := c.Now()
		step := func(what string) {
			if now := c.Now(); now < prev || fired != 0 {
				t.Fatalf("%s: after %s now %v (was %v), %d ticks fired", tc.name, what, now, prev, fired)
			}
			prev = c.Now()
		}
		c.ChargeCPU(1e6)
		step("a CPU batch")
		c.ChargeSeqIO(100)
		step("a page charge across the interval's start")
		c.Idle(1e300)
		step("Idle(1e300)")
		if got, want := c.Now(), Seconds(never); got != want {
			t.Fatalf("%s: Idle(1e300) reached %v, want the last tick %v", tc.name, got, want)
		}
		c.ChargeCPU(5)
		c.Charge(CPU, 1e300)
		c.ChargeRandIO(1)
		c.Idle(1)
		step("charges at the end of time")
	}
	for _, period := range []int64{0, -1, TicksOf(-1e300), TicksOf(1e-13)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTicker(%v) did not panic", period)
				}
			}()
			New(DefaultCosts(), nil).AddTicker(period, func(int64) {})
		}()
	}
}

func TestTickers(t *testing.T) {
	c := New(Costs{SeqPage: 0.1, RandPage: 0.1, CPUTuple: 0.1}, nil)
	var fires []int64
	c.AddTicker(TicksOf(1), func(now int64) { fires = append(fires, now) })
	c.ChargeSeqIO(35) // 3.5s
	want := []int64{TicksOf(1), TicksOf(2), TicksOf(3)}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	// The callback observes the nominal tick time as Ticks().
	c.AddTicker(TicksOf(0.25), func(now int64) {
		if c.Ticks() != now {
			t.Errorf("callback: Ticks() = %d, nominal = %d", c.Ticks(), now)
		}
	})
	c.ChargeSeqIO(10)
}

func TestTwoTickersFireInOrder(t *testing.T) {
	c := New(Costs{SeqPage: 0.1, RandPage: 0.1, CPUTuple: 0.1}, nil)
	var order []int64
	c.AddTicker(TicksOf(1), func(now int64) { order = append(order, now) })
	c.AddTicker(TicksOf(0.7), func(now int64) { order = append(order, now) })
	c.ChargeSeqIO(30) // 3.0s
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("ticks out of order: %v", order)
		}
	}
	if len(order) != 7 { // 0.7,1.0,1.4,2.0,2.1,2.8,3.0
		t.Fatalf("got %d ticks (%v), want 7", len(order), order)
	}
}

func TestRemoveTicker(t *testing.T) {
	c := New(Costs{SeqPage: 0.1, RandPage: 0.1, CPUTuple: 0.1}, nil)
	n := 0
	tk := c.AddTicker(TicksOf(1), func(int64) { n++ })
	c.ChargeSeqIO(15)
	c.RemoveTicker(tk)
	c.ChargeSeqIO(50)
	if n != 1 {
		t.Fatalf("ticker fired %d times, want 1 (removed after first window)", n)
	}
}

func TestIdle(t *testing.T) {
	c := New(DefaultCosts(), nil)
	fired := 0
	c.AddTicker(TicksOf(1), func(int64) { fired++ })
	c.Idle(2.5)
	if !almost(c.Now(), 2.5) || fired != 2 {
		t.Fatalf("idle: now = %g fired = %d, want 2.5 / 2", c.Now(), fired)
	}
	c.Idle(-1)
	if !almost(c.Now(), 2.5) {
		t.Fatal("negative idle must be a no-op")
	}
	c.IdleUntil(TicksOf(1))
	if c.Ticks() != TicksOf(2.5) {
		t.Fatal("idling until a passed tick must be a no-op")
	}
	c.IdleUntil(TicksOf(3) + 1)
	if c.Ticks() != TicksOf(3)+1 || fired != 3 {
		t.Fatalf("IdleUntil: ticks = %d fired = %d, want %d / 3", c.Ticks(), fired, TicksOf(3)+1)
	}
}

// Property: total elapsed time under any single-interval profile equals
// base work time multiplied by the factor, restricted to work inside the
// interval, i.e. time never decreases and loaded time >= unloaded time.
func TestPropertyLoadedNeverFaster(t *testing.T) {
	f := func(workUnits uint16, factor8 uint8, start8, span8 uint8) bool {
		work := float64(workUnits%2000) + 1
		factor := 1 + float64(factor8%10)
		start := float64(start8 % 50)
		span := float64(span8%50) + 1
		p := mustProfile(t, Interval{Start: start, End: start + span, IOFactor: factor})
		loaded := New(Costs{SeqPage: 0.01, RandPage: 0.01, CPUTuple: 0.01}, p)
		unloaded := New(Costs{SeqPage: 0.01, RandPage: 0.01, CPUTuple: 0.01}, nil)
		loaded.Charge(SeqIO, work)
		unloaded.Charge(SeqIO, work)
		if loaded.Now() < unloaded.Now()-1e-9 {
			return false
		}
		// Upper bound: the whole job stretched by the max factor.
		return loaded.Now() <= unloaded.Now()*factor+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ticker fire count equals floor(elapsed/period) regardless of
// charge granularity.
func TestPropertyTickerCount(t *testing.T) {
	f := func(chunks []uint8, period8 uint8) bool {
		period := 0.1 + float64(period8%20)/10
		c := New(Costs{SeqPage: 0.01, RandPage: 0.01, CPUTuple: 0.01}, nil)
		n := 0
		c.AddTicker(TicksOf(period), func(int64) { n++ })
		for _, ch := range chunks {
			c.Charge(SeqIO, float64(ch))
		}
		want := int(c.Now() / period)
		// Floating point at exact boundaries may defer a tick; allow 1.
		return n == want || n == want+1 || n == want-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkKindString(t *testing.T) {
	if SeqIO.String() != "seq-io" || RandIO.String() != "rand-io" || CPU.String() != "cpu" {
		t.Fatal("WorkKind.String values changed")
	}
	if WorkKind(9).String() != "WorkKind(9)" {
		t.Fatal("unknown WorkKind formatting changed")
	}
}
