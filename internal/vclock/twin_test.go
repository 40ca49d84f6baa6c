package vclock

import (
	"math"
	"math/rand"
	"testing"
)

// twinSide is one of two clocks driven through the same operations. The
// slow side has Charge's fast path defeated — its horizon is zeroed before
// every charge, so each one goes through advance and moveTo, the code the
// fast path claims to equal.
type twinSide struct {
	c       *Clock
	slow    bool
	tickers []*Ticker  // live tickers, in registration order
	fires   []float64  // (ticker id, fire time) of every tick, flattened
	cb      *rand.Rand // what a tick callback does; seeded alike on both sides
	nextID  int
	fast    int // charges that took the fast path
}

const twinMaxTickers = 6

func (s *twinSide) addTicker(period float64) {
	if len(s.tickers) >= twinMaxTickers {
		return
	}
	id := s.nextID
	s.nextID++
	tk := s.c.AddTicker(period, func(now float64) {
		s.fires = append(s.fires, float64(id), now)
		switch s.cb.Intn(8) {
		case 0: // a tick that registers a ticker
			s.addTicker(period * (0.5 + s.cb.Float64()))
		case 1: // a tick that unregisters one, possibly itself
			s.removeTicker(s.cb.Intn(twinMaxTickers))
		}
	})
	s.tickers = append(s.tickers, tk)
}

func (s *twinSide) removeTicker(i int) {
	if i >= len(s.tickers) {
		return
	}
	s.c.RemoveTicker(s.tickers[i])
	s.tickers = append(s.tickers[:i], s.tickers[i+1:]...)
}

// charge charges the side's clock and, on the fast side, notes whether
// the fast path served it: the slow path ends in setHorizon, which
// rewrites every cached factor, so a sentinel parked in a factor this
// charge does not read survives only the fast path.
func (s *twinSide) charge(kind WorkKind, n float64) {
	if s.slow {
		s.c.horizon = 0
		s.c.Charge(kind, n)
		return
	}
	other := CPU
	if kind == CPU {
		other = SeqIO
	}
	saved := s.c.factor[other]
	s.c.factor[other] = -1
	s.c.Charge(kind, n)
	if s.c.factor[other] == -1 {
		s.c.factor[other] = saved
		if n > 0 {
			s.fast++
		}
	}
}

// randProfile builds one to three intervals around now — the first may
// already be under way, neighbours may touch — with factors that slow,
// speed up, leave alone (1) or are unset (0) per work kind.
func randProfile(t *testing.T, rng *rand.Rand, now float64) *LoadProfile {
	if rng.Intn(5) == 0 {
		return nil
	}
	factors := []float64{0, 1, 2.5, 0.3, 7}
	var ivs []Interval
	start := now - 0.5 + rng.Float64()
	for i := 1 + rng.Intn(3); i > 0; i-- {
		end := start + 0.01 + 2*rng.Float64()
		ivs = append(ivs, Interval{Start: start, End: end,
			IOFactor: factors[rng.Intn(len(factors))], CPUFactor: factors[rng.Intn(len(factors))]})
		start = end
		if rng.Intn(2) == 0 {
			start += rng.Float64()
		}
	}
	return mustProfile(t, ivs...)
}

// The same random sequence of charges, idles, ticker registrations and
// removals (from outside and from inside tick callbacks) and profile
// changes gives bit-identical times, unit totals and tick sequences with
// and without Charge's fast path — including charges aimed within a few
// ulps of a profile boundary or of a tick.
func TestChargeFastPathIsBitIdentical(t *testing.T) {
	costs := DefaultCosts()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Both sides start as workers of a group that is already under
		// way and loaded, the way a query's clock starts.
		g := NewGroup(costs)
		g.merge(12.5)
		g.SetProfile(randProfile(t, rng, g.Now()))
		sides := [2]*twinSide{
			{c: g.Worker(), cb: rand.New(rand.NewSource(seed))},
			{c: g.Worker(), cb: rand.New(rand.NewSource(seed)), slow: true},
		}
		each := func(op func(s *twinSide)) {
			for _, s := range sides {
				op(s)
			}
		}
		each(func(s *twinSide) { s.addTicker(0.25) })

		charges, checked := 0, 0
		for step := 0; step < 30000; step++ {
			kind := WorkKind(rng.Intn(3))
			switch r := rng.Intn(100); {
			case r < 70: // the executor's per-tuple charges
				n := float64(1 + rng.Intn(20))
				if kind != CPU {
					n = float64(1 + rng.Intn(3))
				}
				charges++
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 80: // a charge ending within a few ulps of a boundary or a tick
				ref := sides[0].c
				f, target := ref.profile.factorAt(ref.now, kind)
				if rng.Intn(2) == 0 || math.IsInf(target, 1) {
					for _, tk := range ref.tickers {
						target = math.Min(target, tk.next)
					}
				}
				n := (target - ref.now) / (ref.unitCost(kind) * f)
				if math.IsInf(n, 0) || n <= 0 {
					continue
				}
				for k := rng.Intn(7) - 3; k != 0; {
					if k > 0 {
						n, k = math.Nextafter(n, math.Inf(1)), k-1
					} else {
						n, k = math.Nextafter(n, 0), k+1
					}
				}
				charges++
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 84: // a charge spanning ticks and intervals
				n := rng.Float64() * 2 / sides[0].c.unitCost(kind)
				charges++
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 86: // charges that charge nothing
				n := -float64(rng.Intn(2))
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 91:
				d := rng.Float64() * 0.3
				each(func(s *twinSide) { s.c.Idle(d) })
			case r < 94:
				period := 0.05 + rng.Float64()
				each(func(s *twinSide) { s.addTicker(period) })
			case r < 97:
				i := rng.Intn(twinMaxTickers)
				each(func(s *twinSide) { s.removeTicker(i) })
			default:
				p := randProfile(t, rng, sides[0].c.now)
				each(func(s *twinSide) { s.c.SetProfile(p) })
			}

			a, b := sides[0], sides[1]
			if math.Float64bits(a.c.Now()) != math.Float64bits(b.c.Now()) {
				t.Fatalf("seed %d step %d: now %v with the fast path, %v without", seed, step, a.c.Now(), b.c.Now())
			}
			for k := SeqIO; k <= CPU; k++ {
				if math.Float64bits(a.c.UnitsOf(k)) != math.Float64bits(b.c.UnitsOf(k)) {
					t.Fatalf("seed %d step %d: %s units %v with the fast path, %v without", seed, step, k, a.c.UnitsOf(k), b.c.UnitsOf(k))
				}
			}
			if len(a.fires) != len(b.fires) {
				t.Fatalf("seed %d step %d: %d ticks with the fast path, %d without", seed, step, len(a.fires)/2, len(b.fires)/2)
			}
			for ; checked < len(a.fires); checked++ {
				if i := checked; math.Float64bits(a.fires[i]) != math.Float64bits(b.fires[i]) {
					t.Fatalf("seed %d step %d: tick %d is (id %v) %v with the fast path, %v without", seed, step, i/2, a.fires[i&^1], a.fires[i], b.fires[i])
				}
			}
		}
		t.Logf("seed %d: %d of %d charges on the fast path, %d ticks, now %.3f", seed, sides[0].fast, charges, len(sides[0].fires)/2, sides[0].c.Now())
		if sides[0].fast < charges/2 || len(sides[0].fires) < 200 {
			t.Fatalf("seed %d: the sequence no longer exercises the fast path (%d of %d charges) or the tickers (%d ticks)",
				seed, sides[0].fast, charges, len(sides[0].fires)/2)
		}
	}
}

// Early on the timeline, where now and an interval's length are of one
// magnitude, a charge can end short of the interval's edge although
// advance's own fit test, (until-now)/factor >= base, rounds the other
// way and splits it there. The fast path must split it too.
func TestChargeFastPathAtAnIntervalEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	costs := DefaultCosts()
	short, turnedAway := 0, 0
	for trial := 0; trial < 200000; trial++ {
		end := 0.1 + rng.Float64()
		f := 0.3 + 7*rng.Float64()
		p := mustProfile(t, Interval{Start: 0, End: end, IOFactor: f, CPUFactor: f},
			Interval{Start: end, End: end + 1, IOFactor: 3, CPUFactor: 3})
		kind := WorkKind(rng.Intn(3))
		sides := [2]*twinSide{{c: New(costs, p)}, {c: New(costs, p), slow: true}}
		start := rng.Float64() * end / 2
		n := (end - start) / (sides[0].c.unitCost(kind) * f)
		for k := rng.Intn(3); k > 0; k-- {
			n = math.Nextafter(n, 0)
		}
		for _, s := range sides {
			s.c.Idle(start)
			s.charge(kind, 0.5) // learns the horizon
			endsShort := s.c.now+(n-0.5)*s.c.unitCost(kind)*f < end
			s.charge(kind, n-0.5)
			if !s.slow && endsShort {
				short++
				if s.fast == 0 {
					turnedAway++
				}
			}
		}
		a, b := sides[0].c, sides[1].c
		if math.Float64bits(a.Now()) != math.Float64bits(b.Now()) {
			t.Fatalf("trial %d: factor %v, interval ends %v: now %v with the fast path, %v without", trial, f, end, a.Now(), b.Now())
		}
	}
	t.Logf("%d charges ended short of the edge, %d of them split all the same", short, turnedAway)
	if turnedAway == 0 || turnedAway == short {
		t.Fatal("the trials no longer land on both sides of the fit test")
	}
}
