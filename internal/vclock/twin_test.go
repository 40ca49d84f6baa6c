package vclock

import (
	"math/rand"
	"testing"
)

// twinSide is one of two clocks driven through the same operations. The
// slow side has ChargeCPU's fast path defeated — its room is zeroed
// before every charge, so each one settles and goes through advance and
// moveTo, the code the batch claims to equal.
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
		if s.cb == nil {
			return
		}
		switch s.cb.Intn(8) {
		case 0: // a tick that registers a ticker, never shorter than 50 ms
			s.addTicker(max(0.05, period*(0.5+s.cb.Float64())))
		case 1: // a tick that unregisters one, possibly itself
			s.removeTicker(s.cb.Intn(twinMaxTickers))
		case 2: // a tick that registers a ticker, then batches work itself
			s.addTicker(max(0.05, period*(0.5+s.cb.Float64())))
			s.c.ChargeCPU(int64(1 + s.cb.Intn(50)))
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

// charge charges n whole units through the kind's own method and, on the
// fast side, notes whether the batch took it: the slow path settles, so
// only the fast path leaves pend grown by n.
func (s *twinSide) charge(kind WorkKind, n int64) {
	if s.slow {
		s.c.room = 0
	}
	before := s.c.pend
	switch kind {
	case SeqIO:
		s.c.ChargeSeqIO(int(n))
	case RandIO:
		s.c.ChargeRandIO(int(n))
	default:
		s.c.ChargeCPU(n)
	}
	if n > 0 && s.c.pend == before+n {
		s.fast++
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
// changes gives equal times, unit totals and tick sequences with and
// without ChargeCPU's batch — including charges aimed within a few units
// of a profile boundary or of a tick.
func TestChargeFastPathIsBitIdentical(t *testing.T) {
	costs := DefaultCosts()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Both sides start as workers of a group that is already under
		// way and loaded, the way a query's clock starts.
		g := NewGroup(costs)
		g.merge(round(12.5 * ticksPerSecond))
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
			// Mostly CPU, as in the executor: a page carries many tuples.
			kind := CPU
			if rng.Intn(5) == 0 {
				kind = WorkKind(rng.Intn(2))
			}
			switch r := rng.Intn(100); {
			case r < 70: // the executor's per-tuple charges
				n := int64(1 + rng.Intn(20))
				if kind != CPU {
					n = int64(1 + rng.Intn(3))
				}
				charges++
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 80: // a charge ending within a few units of a boundary or a tick
				ref := sides[0].c
				now := ref.now + ref.pend*ref.cpu
				f, target := ref.profile.factorAt(now, kind)
				if rng.Intn(2) == 0 || target == never {
					for _, tk := range ref.tickers {
						target = min(target, tk.next)
					}
				}
				l := loaded(ref.base[kind], f)
				if target == never || l == 0 {
					continue
				}
				n := (target-now)/l + int64(rng.Intn(7)-3)
				if n <= 0 {
					continue
				}
				charges++
				each(func(s *twinSide) { s.charge(kind, n) })
			case r < 84: // a fractional charge spanning ticks and intervals
				x := rng.Float64() * 2 / seconds(sides[0].c.base[kind])
				charges++
				each(func(s *twinSide) { s.c.Charge(kind, x) })
			case r < 86: // charges that charge nothing
				n := -int64(rng.Intn(2))
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
				p := randProfile(t, rng, sides[0].c.Now())
				each(func(s *twinSide) { s.c.SetProfile(p) })
			}

			a, b := sides[0], sides[1]
			if a.c.Now() != b.c.Now() {
				t.Fatalf("seed %d step %d: now %v with the fast path, %v without", seed, step, a.c.Now(), b.c.Now())
			}
			for k := SeqIO; k <= CPU; k++ {
				if a.c.UnitsOf(k) != b.c.UnitsOf(k) {
					t.Fatalf("seed %d step %d: %s units %v with the fast path, %v without", seed, step, k, a.c.UnitsOf(k), b.c.UnitsOf(k))
				}
			}
			if len(a.fires) != len(b.fires) {
				t.Fatalf("seed %d step %d: %d ticks with the fast path, %d without", seed, step, len(a.fires)/2, len(b.fires)/2)
			}
			for ; checked < len(a.fires); checked++ {
				if i := checked; a.fires[i] != b.fires[i] {
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

// room is the fewest CPU units whose cost reaches the horizon. A batch
// one unit short of it stays pending and fires nothing; the unit that
// reaches the horizon — landing exactly on a tick or a profile boundary,
// or crossing it — takes the slow path, which fires the tick at its
// nominal time or moves to the next span's rate.
func TestChargeFastPathAtAnIntervalEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	costs := DefaultCosts()
	exact := 0
	for trial := 0; trial < 2000; trial++ {
		// Factors 0.5, 2.5 and 4 make the span a whole number of loaded
		// units at some starts, so some charges land exactly on the edge.
		f := []float64{0.5, 1, 2.5, 4, 0.3 + 7*rng.Float64()}[rng.Intn(5)]
		end := 0.1 + float64(rng.Intn(10))/10
		p := mustProfile(t, Interval{Start: 0, End: end, CPUFactor: f},
			Interval{Start: end, End: end + 1, CPUFactor: 3})
		sides := [2]*twinSide{{c: New(costs, p)}, {c: New(costs, p), slow: true}}
		start := float64(rng.Intn(1000)) * 1e-4
		tick, period := rng.Intn(2) == 0, 0.01*float64(1+rng.Intn(5))
		for _, s := range sides {
			s.c.Idle(start)
			if tick {
				s.addTicker(period)
			}
		}
		c := sides[0].c
		room := c.room
		if c.pend != 0 || room < 2 {
			t.Fatalf("trial %d: pend %d, room %d after Idle", trial, c.pend, room)
		}
		_, boundary := c.profile.factorAt(c.now, CPU)
		horizon := boundary
		for _, tk := range c.tickers {
			horizon = min(horizon, tk.next)
		}
		if (horizon-c.now)%c.cpu == 0 {
			exact++
		}
		for _, s := range sides {
			s.charge(CPU, room-1)
		}
		if c.pend != room-1 || len(sides[0].fires) != 0 {
			t.Fatalf("trial %d: a batch one unit short of room %d left pend %d and fired %d ticks", trial, room, c.pend, len(sides[0].fires)/2)
		}
		for _, s := range sides {
			s.charge(CPU, 1)
		}
		if c.pend != 0 {
			t.Fatalf("trial %d: the unit reaching the horizon stayed pending", trial)
		}
		if horizon < boundary && len(sides[0].fires) == 0 {
			t.Fatalf("trial %d: the unit reaching the tick did not fire it", trial)
		}
		a, b := sides[0], sides[1]
		if a.c.Now() != b.c.Now() || len(a.fires) != len(b.fires) {
			t.Fatalf("trial %d: now %v and %d ticks with the fast path, %v and %d without", trial, a.c.Now(), len(a.fires)/2, b.c.Now(), len(b.fires)/2)
		}
		for i := range a.fires {
			if a.fires[i] != b.fires[i] {
				t.Fatalf("trial %d: tick %d at %v with the fast path, %v without", trial, i/2, a.fires[i], b.fires[i])
			}
		}
		if c.now < horizon {
			t.Fatalf("trial %d: now %d short of the horizon %d", trial, c.now, horizon)
		}
	}
	t.Logf("%d of 2000 horizons a whole number of units away", exact)
	if exact == 0 {
		t.Fatal("no trial landed a charge exactly on the edge")
	}
}
