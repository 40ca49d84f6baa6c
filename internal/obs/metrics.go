// Package obs is the engine's observability substrate: a lightweight
// metrics registry (counters, gauges, histograms).
//
// Design constraints, in the spirit of the paper's "< 1% penalty on the
// running time of queries" budget (Section 5.4):
//
//   - Zero allocation on the hot path. Instruments are resolved once at
//     wiring time; Inc/Add/Set/Observe touch a single atomic word.
//   - Nil-safe. Every instrument method no-ops on a nil receiver, so
//     "observability disabled" is simply a nil *Registry propagated
//     through the wiring — the paper's statistics-collection flag turned
//     off — with only a nil check left behind on the hot path.
//   - Snapshot-able. Registry state renders to a Prometheus-style text
//     exposition and to JSON; see prom.go.
//
// The registry is safe for concurrent use (the group scheduler may touch
// instruments from several goroutines).
package obs

import (
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued instrument that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, tracking the total count and sum as Prometheus histograms do.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	sum    Gauge
	count  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~12) and branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Kind is an instrument type.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// instrument is one registered metric series.
type instrument struct {
	id       string // seriesID(name, labelKey, labelVal)
	name     string
	labelKey string
	labelVal string
	help     string
	kind     Kind
	// site is the return PC of the call that registered an unlabeled
	// series (0 for a labeled one): the call site that owns the name.
	site uintptr

	c *Counter
	g *Gauge
	h *Histogram
}

func seriesID(name, lk, lv string) string {
	if lk == "" {
		return name
	}
	return name + "{" + lk + "=\"" + lv + "\"}"
}

// Registry holds named instruments. The zero value is not usable; create
// with NewRegistry. A nil *Registry is the disabled state: all lookups
// return nil instruments, whose methods no-op.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*instrument
	// insts is every instrument in series-ID order: registration inserts
	// in place, so a snapshot, taken far more often, never sorts.
	insts []*instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// subsystems are the approved metric name prefixes (the segment before
// the first underscore). Adding a subsystem is a deliberate, reviewed
// act: extend this list and DESIGN.md §7 together.
var subsystems = map[string]bool{
	"engine":      true, // whole-DB counters (queries, leaks)
	"bufferpool":  true,
	"storage":     true,
	"disk":        true,
	"vclock":      true,
	"exec":        true,
	"segment":     true,
	"server":      true,
	"fleet":       true, // sharded-serving coordinator (merge, fan-out, per-shard gauges)
	"faultinject": true,
	"indicator":   true, // progress-indicator gauges
	"progress":    true, // progress-estimate distributions
}

var snakeCaseRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// lookup returns the instrument of one series, creating it on first
// use. Every rule a name must obey is a wiring bug when broken, so each
// panics, like a kind collision: a new name must be snake_case with a
// known subsystem prefix, and an unlabeled name belongs to the one
// source line that registers it — a second line picking the same name
// would alias two meanings under one series. Labeled families are
// registered per label value from wherever the value is known, so they
// are exempt.
func (r *Registry) lookup(name, lk, lv, help string, kind Kind) *instrument {
	var site [1]uintptr
	if lk == "" {
		runtime.Callers(3, site[:]) // the caller of Counter, Gauge or Histogram
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := seriesID(name, lk, lv)
	if in, ok := r.byID[id]; ok {
		if in.kind != kind {
			//lint:ignore errwrap sanctioned: a kind collision on one series name is a wiring bug; failing fast beats silently merging two meanings
			panic("obs: instrument " + id + " re-registered as " + string(kind) +
				", previously registered as " + string(in.kind))
		}
		if in.site != site[0] {
			if prev, cur := sourceLine(in.site), sourceLine(site[0]); prev != cur {
				//lint:ignore errwrap sanctioned: two call sites sharing one unlabeled name is a wiring bug, caught on the second registration
				panic("obs: metric " + id + " registered at " + cur + ", already registered at " + prev)
			}
		}
		return in
	}
	if sub, _, _ := strings.Cut(name, "_"); !snakeCaseRE.MatchString(name) || !subsystems[sub] {
		//lint:ignore errwrap sanctioned: a malformed metric name is a wiring bug, caught on first registration
		panic("obs: metric name " + name + " is not snake_case with a known subsystem prefix " +
			"(lowercase words joined by underscores, the first listed in obs.subsystems)")
	}
	in := &instrument{id: id, name: name, labelKey: lk, labelVal: lv, help: help, kind: kind, site: site[0]}
	switch kind {
	case KindCounter:
		in.c = &Counter{}
	case KindGauge:
		in.g = &Gauge{}
	}
	r.byID[id] = in
	i, _ := slices.BinarySearchFunc(r.insts, id, func(in *instrument, id string) int { return strings.Compare(in.id, id) })
	r.insts = slices.Insert(r.insts, i, in)
	return in
}

// sourceLine renders a return PC as file:line. Two PCs on one line are
// one call site: a function inlined into two callers has a copy of each
// call in it.
func sourceLine(pc uintptr) string {
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	return f.File + ":" + strconv.Itoa(f.Line)
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, "", "", help, KindCounter).c
}

// LabeledCounter is Counter with one label pair, e.g.
// exec_rows_out_total{op="hashjoin"}.
func (r *Registry) LabeledCounter(name, labelKey, labelVal, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labelKey, labelVal, help, KindCounter).c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, "", "", help, KindGauge).g
}

// LabeledGauge is Gauge with one label pair.
func (r *Registry) LabeledGauge(name, labelKey, labelVal, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labelKey, labelVal, help, KindGauge).g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds (sorted ascending) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	in := r.lookup(name, "", "", help, KindHistogram)
	if in.h == nil {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		in.h = h
	}
	return in.h
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// LE is the inclusive upper bound (+Inf for the last bucket).
	LE float64 `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count int64 `json:"count"`
}

// MarshalJSON renders the +Inf upper bound as the string "+Inf"
// (Prometheus's convention; JSON numbers cannot express infinity).
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return json.Marshal(struct {
			LE    string `json:"le"`
			Count int64  `json:"count"`
		}{"+Inf", b.Count})
	}
	type alias Bucket // methodless copy avoids recursion
	return json.Marshal(alias(b))
}

// UnmarshalJSON accepts both a numeric bound and the "+Inf" string.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.LE, &s); err == nil {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// Sample is the snapshot of one instrument.
type Sample struct {
	Name     string   `json:"name"`
	LabelKey string   `json:"label_key,omitempty"`
	LabelVal string   `json:"label_val,omitempty"`
	Kind     Kind     `json:"kind"`
	Help     string   `json:"help,omitempty"`
	Value    float64  `json:"value"`
	Count    int64    `json:"count,omitempty"`
	Sum      float64  `json:"sum,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
}

// ID returns the sample's series identity (name plus label).
func (s Sample) ID() string { return seriesID(s.Name, s.LabelKey, s.LabelVal) }

// MarshalJSON renders the sample with non-finite floats mapped to null
// (JSON has no NaN or Inf; a gauge mirroring an unbounded estimate may
// legitimately hold either).
func (s Sample) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name     string    `json:"name"`
		LabelKey string    `json:"label_key,omitempty"`
		LabelVal string    `json:"label_val,omitempty"`
		Kind     Kind      `json:"kind"`
		Help     string    `json:"help,omitempty"`
		Value    jsonFloat `json:"value"`
		Count    int64     `json:"count,omitempty"`
		Sum      jsonFloat `json:"sum,omitempty"`
		Buckets  []Bucket  `json:"buckets,omitempty"`
	}{s.Name, s.LabelKey, s.LabelVal, s.Kind, s.Help,
		jsonFloat(s.Value), s.Count, jsonFloat(s.Sum), s.Buckets})
}

// jsonFloat is a float64 whose non-finite values marshal as null.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// Snapshot returns the current value of every instrument, sorted by
// series identity. Nil registries return nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	insts := append([]*instrument(nil), r.insts...)
	r.mu.Unlock()
	out := make([]Sample, 0, len(insts))
	for _, in := range insts {
		s := Sample{
			Name: in.name, LabelKey: in.labelKey, LabelVal: in.labelVal,
			Kind: in.kind, Help: in.help,
		}
		switch in.kind {
		case KindCounter:
			s.Value = float64(in.c.Value())
		case KindGauge:
			s.Value = in.g.Value()
		case KindHistogram:
			s.Count = in.h.Count()
			s.Sum = in.h.Sum()
			cum := int64(0)
			for i := range in.h.counts {
				cum += in.h.counts[i].Load()
				le := math.Inf(1)
				if i < len(in.h.bounds) {
					le = in.h.bounds[i]
				}
				s.Buckets = append(s.Buckets, Bucket{LE: le, Count: cum})
			}
		}
		out = append(out, s)
	}
	return out
}

// JSON renders the snapshot as a JSON array of samples.
func (r *Registry) JSON() ([]byte, error) {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Sample{}
	}
	return json.MarshalIndent(snap, "", "  ")
}
