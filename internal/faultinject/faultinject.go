// Package faultinject is the engine's chaos-testing subsystem: a
// deterministic, seedable fault injector that sits under the storage
// layer (via storage.Disk.SetFaultInjector) and perturbs physical page
// I/O the way the paper's evaluation perturbs its queries — failures,
// slowdowns, and crashes under which the progress indicator, and the
// engine around it, must stay correct.
//
// Three fault kinds are supported, independently configurable per file
// class (base relations vs. per-query temp/spill files):
//
//   - I/O errors: probabilistic read/write faults, each transient
//     (cleared by the buffer pool's bounded retry) or permanent, plus
//     deterministic schedules such as "fail the Nth write to a temp
//     file".
//   - Latency: probabilistic extra virtual seconds charged to the
//     vclock per access — the paper's I/O-interference experiments as
//     targeted chaos rather than a global load profile.
//   - Panics: "panic on the Nth access", simulating an executor crash
//     that the engine's panic boundary must convert into a typed error
//     without taking down the process.
//
// Everything is driven by one math/rand stream seeded from
// Config.Seed, so a failing schedule reproduces exactly.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"progressdb/internal/obs"
	"progressdb/internal/storage"
)

// Target selects which file classes faults apply to.
type Target int

// Targets.
const (
	// TargetAll faults base and temp files alike.
	TargetAll Target = iota
	// TargetBase faults only long-lived files (tables, indexes, log).
	TargetBase
	// TargetTemp faults only per-query scratch files (spills, runs).
	TargetTemp
)

// String returns the spec token for the target.
func (t Target) String() string {
	switch t {
	case TargetBase:
		return "base"
	case TargetTemp:
		return "temp"
	default:
		return "all"
	}
}

// Config is one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed seeds the deterministic RNG (0 is treated as 1).
	Seed int64
	// ReadErrProb and WriteErrProb are per-access probabilities of an
	// injected I/O error on targeted reads / writes.
	ReadErrProb, WriteErrProb float64
	// TransientProb is the probability that an injected probabilistic
	// error is transient (retry may clear it); the rest are permanent.
	TransientProb float64
	// LatencyProb is the per-access probability of charging
	// LatencySeconds of extra virtual time to the clock.
	LatencyProb    float64
	LatencySeconds float64
	// Target restricts faults to a file class.
	Target Target
	// FailNthRead / FailNthWrite, when > 0, deterministically fail the
	// Nth targeted read / write with a permanent fault (1-based,
	// counted over the injector's lifetime).
	FailNthRead, FailNthWrite int64
	// PanicNth, when > 0, panics on the Nth targeted access (reads and
	// writes counted together) — the simulated executor crash.
	PanicNth int64
	// MaxFaults, when > 0, caps the number of injected errors (ordinal
	// and probabilistic combined); later accesses pass through. Latency
	// injections are not counted against the cap.
	MaxFaults int64
}

// Parse builds a Config from a compact comma-separated spec, the form
// taken by progressdb.Config.FaultSpec and progressd's -fault flag:
//
//	seed=7,readerr=0.01,writeerr=0.02,transient=0.5,latency=0.1:0.005,
//	target=temp,nthread=0,nthwrite=5,panicnth=0,max=3
//
// Unknown keys, malformed numbers, and out-of-range probabilities are
// errors. The empty spec parses to the zero Config (inject nothing).
func Parse(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return 0, fmt.Errorf("faultinject: %s: %w", key, err)
			}
			// NaN fails every comparison, so test the valid range
			// positively instead of rejecting the invalid one.
			if !(p >= 0 && p <= 1) {
				return 0, fmt.Errorf("faultinject: %s=%g outside [0,1]", key, p)
			}
			return p, nil
		}
		count := func() (int64, error) {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("faultinject: %s: %w", key, err)
			}
			if n < 0 {
				return 0, fmt.Errorf("faultinject: %s=%d must be >= 0", key, n)
			}
			return n, nil
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: seed: %w", err)
			}
		case "readerr":
			cfg.ReadErrProb, err = prob()
		case "writeerr":
			cfg.WriteErrProb, err = prob()
		case "transient":
			cfg.TransientProb, err = prob()
		case "latency":
			p, s, found := strings.Cut(val, ":")
			if !found {
				return cfg, fmt.Errorf("faultinject: latency wants prob:seconds, got %q", val)
			}
			if cfg.LatencyProb, err = strconv.ParseFloat(p, 64); err != nil {
				return cfg, fmt.Errorf("faultinject: latency prob: %w", err)
			}
			if !(cfg.LatencyProb >= 0 && cfg.LatencyProb <= 1) { // NaN-proof range check
				return cfg, fmt.Errorf("faultinject: latency prob %g outside [0,1]", cfg.LatencyProb)
			}
			if cfg.LatencySeconds, err = strconv.ParseFloat(s, 64); err != nil {
				return cfg, fmt.Errorf("faultinject: latency seconds: %w", err)
			}
			if !(cfg.LatencySeconds >= 0) || math.IsInf(cfg.LatencySeconds, 1) {
				return cfg, fmt.Errorf("faultinject: latency seconds %g must be finite and >= 0", cfg.LatencySeconds)
			}
		case "target":
			switch val {
			case "all":
				cfg.Target = TargetAll
			case "base":
				cfg.Target = TargetBase
			case "temp":
				cfg.Target = TargetTemp
			default:
				return cfg, fmt.Errorf("faultinject: target must be all|base|temp, got %q", val)
			}
		case "nthread":
			cfg.FailNthRead, err = count()
		case "nthwrite":
			cfg.FailNthWrite, err = count()
		case "panicnth":
			cfg.PanicNth, err = count()
		case "max":
			cfg.MaxFaults, err = count()
		default:
			return cfg, fmt.Errorf("faultinject: unknown key %q", key)
		}
		if err != nil {
			return cfg, err
		}
	}
	// Canonicalize: latency seconds without a probability can never
	// fire, and String omits the latency clause entirely when the
	// probability is zero — dropping the dead seconds here keeps
	// Parse(cfg.String()) == cfg (the fuzzed round-trip invariant).
	if cfg.LatencyProb == 0 {
		cfg.LatencySeconds = 0
	}
	return cfg, nil
}

// String renders the config back as a parseable spec (empty for the
// zero config).
func (c Config) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if c.Seed != 0 {
		add(fmt.Sprintf("seed=%d", c.Seed))
	}
	if c.ReadErrProb > 0 {
		add(fmt.Sprintf("readerr=%g", c.ReadErrProb))
	}
	if c.WriteErrProb > 0 {
		add(fmt.Sprintf("writeerr=%g", c.WriteErrProb))
	}
	if c.TransientProb > 0 {
		add(fmt.Sprintf("transient=%g", c.TransientProb))
	}
	if c.LatencyProb > 0 {
		add(fmt.Sprintf("latency=%g:%g", c.LatencyProb, c.LatencySeconds))
	}
	if c.Target != TargetAll {
		add("target=" + c.Target.String())
	}
	if c.FailNthRead > 0 {
		add(fmt.Sprintf("nthread=%d", c.FailNthRead))
	}
	if c.FailNthWrite > 0 {
		add(fmt.Sprintf("nthwrite=%d", c.FailNthWrite))
	}
	if c.PanicNth > 0 {
		add(fmt.Sprintf("panicnth=%d", c.PanicNth))
	}
	if c.MaxFaults > 0 {
		add(fmt.Sprintf("max=%d", c.MaxFaults))
	}
	return strings.Join(parts, ",")
}

// Stats counts what the injector has done.
type Stats struct {
	// Reads and Writes count targeted accesses inspected.
	Reads, Writes int64
	// ReadFaults and WriteFaults count injected I/O errors by direction.
	ReadFaults, WriteFaults int64
	// TransientFaults is how many of the injected errors were transient.
	TransientFaults int64
	// LatencyEvents counts latency injections.
	LatencyEvents int64
	// Panics counts injected panics (0 or 1: a fired panic schedule
	// does not re-arm).
	Panics int64
}

// Faults returns the total injected error count.
func (s Stats) Faults() int64 { return s.ReadFaults + s.WriteFaults }

// Metrics are the injector's engine-wide instruments (faultinject_*
// series on the shared obs registry). The zero value is disabled; all
// increments are nil-safe.
type Metrics struct {
	ReadFaults      *obs.Counter
	WriteFaults     *obs.Counter
	TransientFaults *obs.Counter
	LatencyEvents   *obs.Counter
	Panics          *obs.Counter
}

// NewMetrics registers the faultinject_* instruments in reg (nil reg
// yields disabled metrics).
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		ReadFaults:      reg.Counter("faultinject_read_faults_total", "injected physical read errors"),
		WriteFaults:     reg.Counter("faultinject_write_faults_total", "injected physical write errors"),
		TransientFaults: reg.Counter("faultinject_transient_faults_total", "injected errors marked transient (retryable)"),
		LatencyEvents:   reg.Counter("faultinject_latency_events_total", "accesses stretched with injected latency"),
		Panics:          reg.Counter("faultinject_panics_total", "injected executor panics"),
	}
}

// Injector implements storage.FaultInjector over one Config. Safe for
// concurrent use (the engine is single-threaded, but /metrics scrapes
// and tests may read Stats from other goroutines).
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	st  Stats
	met Metrics
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetMetrics installs engine-wide instruments.
func (in *Injector) SetMetrics(m Metrics) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.met = m
}

// Stats returns a snapshot of the injector's accounting.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// targets reports whether the schedule applies to the class.
func (in *Injector) targets(class storage.FileClass) bool {
	switch in.cfg.Target {
	case TargetBase:
		return class == storage.ClassBase
	case TargetTemp:
		return class == storage.ClassTemp
	default:
		return true
	}
}

// BeforePageIO implements storage.FaultInjector: consulted before every
// physical page access, it may return latency (virtual seconds), return
// an injected *storage.IOFault, or panic per the schedule. Ordinal
// schedules (PanicNth, FailNthRead/Write) fire before probabilistic
// ones so they stay deterministic regardless of the RNG stream.
func (in *Injector) BeforePageIO(op storage.FaultOp, class storage.FileClass) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.targets(class) {
		return 0, nil
	}
	var ordinal int64 // per-direction access count
	if op == storage.OpRead {
		in.st.Reads++
		ordinal = in.st.Reads
	} else {
		in.st.Writes++
		ordinal = in.st.Writes
	}

	// Injected crash: the panic unwinds through the executor and must be
	// contained at the engine's recover() boundary.
	if in.cfg.PanicNth > 0 && in.st.Reads+in.st.Writes == in.cfg.PanicNth {
		in.st.Panics++
		in.met.Panics.Inc()
		//lint:ignore errwrap sanctioned: the injected crash IS the fault being tested; the engine's recover boundary must contain it
		panic(fmt.Sprintf("faultinject: scheduled panic at access %d (%s, %s file)",
			in.cfg.PanicNth, op, class))
	}

	var lat float64
	if in.cfg.LatencyProb > 0 && in.rng.Float64() < in.cfg.LatencyProb {
		lat = in.cfg.LatencySeconds
		in.st.LatencyEvents++
		in.met.LatencyEvents.Inc()
	}

	if in.cfg.MaxFaults > 0 && in.st.Faults() >= in.cfg.MaxFaults {
		return lat, nil
	}

	// Deterministic ordinal faults are always permanent: retrying the
	// same operation must keep failing or the schedule would be a no-op
	// under the retry loop.
	if op == storage.OpRead && in.cfg.FailNthRead > 0 && ordinal == in.cfg.FailNthRead {
		return lat, in.fault(op, class, true)
	}
	if op == storage.OpWrite && in.cfg.FailNthWrite > 0 && ordinal == in.cfg.FailNthWrite {
		return lat, in.fault(op, class, true)
	}

	prob := in.cfg.ReadErrProb
	if op == storage.OpWrite {
		prob = in.cfg.WriteErrProb
	}
	if prob > 0 && in.rng.Float64() < prob {
		permanent := true
		if in.cfg.TransientProb > 0 && in.rng.Float64() < in.cfg.TransientProb {
			permanent = false
		}
		return lat, in.fault(op, class, permanent)
	}
	return lat, nil
}

// fault records and builds one injected error. Caller holds in.mu.
func (in *Injector) fault(op storage.FaultOp, class storage.FileClass, permanent bool) error {
	if op == storage.OpRead {
		in.st.ReadFaults++
		in.met.ReadFaults.Inc()
	} else {
		in.st.WriteFaults++
		in.met.WriteFaults.Inc()
	}
	if !permanent {
		in.st.TransientFaults++
		in.met.TransientFaults.Inc()
	}
	return &storage.IOFault{Op: op, Class: class, Seq: in.st.Faults(), Permanent: permanent}
}
