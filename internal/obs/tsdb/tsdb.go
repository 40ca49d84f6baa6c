// Package tsdb is the observability plane's in-process timeseries
// store: a fixed-capacity ring buffer per metric series, fed by
// periodically sampling an obs.Registry snapshot, and queried as
// windowed, downsampled point lists for dashboards and tests.
//
// The store is deliberately clock-agnostic: every Record call carries
// its own timestamp (seconds, as a float64). The daemon's sampler
// stamps samples with wall-clock time; tests stamp them with the
// engine's virtual clock, which keeps the whole plane deterministic
// under `go test` — the same split the rest of the repository uses
// (wall time belongs to the serving layer, virtual time to the engine).
//
// Concurrency: the store is written by one sampler and read by many
// HTTP handlers. The series map is guarded by an RWMutex taken only to
// look up or create series; each series has its own small mutex around
// its ring, so a Record pass over N series takes N brief uncontended
// locks and readers never block the sampler for long ("lock-cheap"
// rather than lock-free — the sampler runs at ~1 Hz, not in a query
// hot loop).
package tsdb

import (
	"math"
	"sort"
	"strings"
	"sync"

	"progressdb/internal/obs"
)

// Ref marks a string literal as a reference to a registered metric
// series name (e.g. the dashboard's sparkline list). It is the identity
// function at runtime; its value is that the obsnames analyzer resolves
// every Ref call site against the module's actual registrations, so a
// dashboard or sampler list cannot silently name a series that nothing
// registers. Histogram-derived series may be referenced with a _count
// or _sum suffix on the registered histogram name.
func Ref(name string) string { return name }

// Point is one timestamped sample value.
type Point struct {
	// T is the sample time in seconds (wall clock in the daemon,
	// virtual clock in tests — whatever the Record caller supplied).
	T float64 `json:"t"`
	// V is the sampled value.
	V float64 `json:"v"`
}

// series is one metric's ring buffer.
type series struct {
	kind obs.Kind
	help string

	mu   sync.Mutex
	buf  []Point // fixed capacity
	head int     // next write slot
	n    int     // filled entries (≤ cap)
}

// append adds one point, overwriting the oldest when full.
func (s *series) append(p Point) {
	s.mu.Lock()
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// points returns the ring's contents in time order.
func (s *series) points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// Store holds one ring buffer per metric series.
type Store struct {
	capacity int

	mu     sync.RWMutex
	series map[string]*series
}

// New creates a store whose rings hold capacity points per series
// (minimum 2; a typical daemon setting is 720 = 12 minutes at 1 Hz).
func New(capacity int) *Store {
	if capacity < 2 {
		capacity = 2
	}
	return &Store{capacity: capacity, series: make(map[string]*series)}
}

// Capacity returns the per-series ring capacity.
func (st *Store) Capacity() int { return st.capacity }

// Record appends one point per sample at time now. Counters and gauges
// record their value under the sample's series ID (name plus label);
// histograms record two derived series, <name>_count and <name>_sum,
// which is what a sparkline can plot (bucket vectors don't fit a ring
// of scalars). Samples the store has never seen allocate their ring on
// first use; the set of series is in practice fixed after the first
// Record, so steady-state Record allocates nothing but the point grid.
func (st *Store) Record(now float64, samples []obs.Sample) {
	for _, s := range samples {
		switch s.Kind {
		case obs.KindHistogram:
			st.get(s.ID()+"_count", s.Kind, s.Help).append(Point{T: now, V: float64(s.Count)})
			st.get(s.ID()+"_sum", s.Kind, s.Help).append(Point{T: now, V: s.Sum})
		default:
			// A gauge reading ±Inf or NaN (remaining time before any speed
			// is known) leaves a gap: a plot cannot place it and JSON
			// cannot carry it.
			if math.IsInf(s.Value, 0) || math.IsNaN(s.Value) {
				continue
			}
			st.get(s.ID(), s.Kind, s.Help).append(Point{T: now, V: s.Value})
		}
	}
}

func (st *Store) get(id string, kind obs.Kind, help string) *series {
	st.mu.RLock()
	sr := st.series[id]
	st.mu.RUnlock()
	if sr != nil {
		return sr
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sr = st.series[id]; sr != nil {
		return sr
	}
	sr = &series{kind: kind, help: help, buf: make([]Point, st.capacity)}
	st.series[id] = sr
	return sr
}

// Names returns every series ID the store has recorded, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.series))
	for id := range st.series {
		out = append(out, id)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Series is one queried series: its identity and windowed points.
type Series struct {
	Name string   `json:"name"`
	Kind obs.Kind `json:"kind"`
	Help string   `json:"help,omitempty"`
	// Points are in time order, downsampled to the query's budget.
	Points []Point `json:"points"`
}

// Query returns the named series (every recorded series when names is
// empty) restricted to timestamps in [from, to] and downsampled to at
// most maxPoints points each (0 means no downsampling). Series are
// returned sorted by name; a requested name with no recorded points
// yields a series with an empty Points slice, so callers can tell
// "unknown series" apart from "no data in window".
func (st *Store) Query(names []string, from, to float64, maxPoints int) []Series {
	if len(names) == 0 {
		names = st.Names()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	out := make([]Series, 0, len(names))
	for _, id := range names {
		st.mu.RLock()
		sr := st.series[id]
		st.mu.RUnlock()
		if sr == nil {
			continue
		}
		pts := sr.points()
		lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= from })
		hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > to })
		windowed := pts[lo:hi]
		out = append(out, Series{
			Name:   id,
			Kind:   sr.kind,
			Help:   sr.help,
			Points: downsample(windowed, maxPoints),
		})
	}
	return out
}

// downsample reduces pts to at most max points by averaging fixed-width
// time buckets (each emitted point carries the bucket's mean value at
// the bucket's last sample time). Averaging is the right default for
// sparklines: gauges smooth, and cumulative counters keep their slope.
func downsample(pts []Point, max int) []Point {
	out := make([]Point, 0, len(pts))
	if max <= 0 || len(pts) <= max {
		return append(out, pts...)
	}
	span := pts[len(pts)-1].T - pts[0].T
	if span <= 0 {
		// All points share one timestamp; keep the last.
		return append(out, pts[len(pts)-1])
	}
	width := span / float64(max)
	bucket := 0
	var sum float64
	var n int
	var last Point
	for _, p := range pts {
		b := int((p.T - pts[0].T) / width)
		if b >= max {
			b = max - 1
		}
		if n > 0 && b != bucket {
			out = append(out, Point{T: last.T, V: sum / float64(n)})
			sum, n = 0, 0
		}
		bucket = b
		sum += p.V
		n++
		last = p
	}
	if n > 0 {
		out = append(out, Point{T: last.T, V: sum / float64(n)})
	}
	return out
}

// HasPrefix reports whether the series ID's metric name (the part
// before any label brace) starts with prefix — a convenience for tests
// asserting coverage of a subsystem's series.
func HasPrefix(id, prefix string) bool {
	name := id
	if i := strings.IndexByte(id, '{'); i >= 0 {
		name = id[:i]
	}
	return strings.HasPrefix(name, prefix)
}
