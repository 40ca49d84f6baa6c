// Package core implements the paper's contribution: a continuously
// refined progress indicator for SPJ queries.
//
// The Indicator is a segment.WorkReporter wired into the executor. As
// boundary bytes flow it maintains, per segment:
//
//   - refined input estimates (Section 4.3): a base input keeps the
//     optimizer's cardinality Ne until the running count exceeds it, then
//     uses the running count; after the scan finishes the count is exact;
//     upper-level inputs become exact when the producing segment ends;
//   - the refined output-cardinality estimate (Section 4.5):
//     E = p·E2 + (1−p)·E1, where p is the dominant-input fraction
//     processed (p = max(qA, qB) for a sort-merge join's two dominant
//     inputs), E1 the optimizer's estimate at segment start, and
//     E2 = y/p the linear extrapolation of the y output tuples seen;
//   - upward propagation: future segments are re-costed by re-invoking
//     the optimizer's cost-estimation module (segment.EvalSegment) with
//     the refined estimates.
//
// Execution speed is monitored over the trailing T-second window
// (Section 4.6, T = 10 s by default), with an optional decaying-average
// smoother (the paper's suggested extension). Remaining time is the
// estimated remaining U divided by the observed speed.
package core

import (
	"math"

	"progressdb/internal/obs"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
)

// Options configure an Indicator.
type Options struct {
	// UpdatePeriod is the snapshot interval in virtual seconds
	// (default 10, the paper's refresh rate).
	UpdatePeriod float64
	// SpeedWindow is T, the trailing window for speed monitoring in
	// virtual seconds (default 10, the paper's choice).
	SpeedWindow float64
	// SamplePeriod is how often the work counter is sampled for the
	// speed window (default 1 s).
	SamplePeriod float64
	// DecayAlpha, if in (0, 1], replaces the plain window speed with an
	// exponentially decayed average of window speeds — the smoothing the
	// paper suggests as future work in Section 4.6. 0 disables it.
	DecayAlpha float64
	// PerSegmentSpeed enables the Section 4.6 future-work refinement:
	// instead of dividing all remaining U by the single observed speed,
	// future segments are timed with a predicted per-segment rate (from
	// their disk-vs-memory byte mix) scaled by the currently observed
	// load. This fixes the paper's two-segment example, where an
	// I/O-bound running segment makes the naive conversion overestimate
	// a fast memory-bound successor.
	PerSegmentSpeed bool
	// Estimator selects the current-segment output estimator; the
	// default is the paper's blend. The alternatives exist for ablation
	// (see bench_test.go).
	Estimator EstimatorMode
	// Refine holds the engine-wide refinement instruments; the zero value
	// is disabled (every update is a nil-safe no-op).
	Refine RefinementMetrics
	// Events, when non-nil, receives a structured JSONL event for every
	// progress refresh and segment completion.
	Events *obs.EventWriter
}

// EstimatorMode is an ablation knob for the Section 4.5 refinement
// formula.
type EstimatorMode int

const (
	// EstimatorBlend is the paper's E = p·E2 + (1−p)·E1.
	EstimatorBlend EstimatorMode = iota
	// EstimatorStatic never refines the current segment's output
	// estimate: E = E1 until the segment completes (what a plain
	// optimizer-estimate indicator would do).
	EstimatorStatic
	// EstimatorLinear uses the raw extrapolation E = E2 = y/p as soon as
	// any dominant-input progress exists; it converges too, but without
	// the blend's smoothing it fluctuates early, which is exactly why
	// the paper blends.
	EstimatorLinear
)

// memSpeedup is the assumed ratio of memory-resident to sequential-disk
// byte processing rates for PerSegmentSpeed.
const memSpeedup = 8

func (o Options) withDefaults() Options {
	if o.UpdatePeriod <= 0 {
		o.UpdatePeriod = 10
	}
	if o.SpeedWindow <= 0 {
		o.SpeedWindow = 10
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 1
	}
	return o
}

// optimizerBytesPerSec is the unloaded-system processing rate the
// trivial optimizer-only baseline assumes (the paper's dotted line:
// estimated I/Os ÷ assumed disk speed): one page per sequential page
// cost of the clock.
func (ind *Indicator) optimizerBytesPerSec() float64 {
	if c := ind.clock.Costs().SeqPage; c > 0 {
		return storage.PageSize / c
	}
	return storage.PageSize * 1000
}

// Snapshot is one refresh of the progress display (the paper's Figure 2
// fields, plus the baselines the evaluation section compares against).
type Snapshot struct {
	// Time is the virtual time of the snapshot (seconds since clock 0).
	Time float64
	// Elapsed is seconds since the query started.
	Elapsed float64
	// EstTotalU is the continuously refined estimate of the query cost,
	// in U (pages).
	EstTotalU float64
	// DoneU is the work completed so far, in U.
	DoneU float64
	// Percent is the estimated completed percentage in [0, 100].
	Percent float64
	// SpeedU is the monitored execution speed in U per second.
	SpeedU float64
	// RemainingSeconds is the estimated remaining execution time.
	RemainingSeconds float64
	// CurrentSegment is the index of the segment now executing (-1 after
	// completion).
	CurrentSegment int
	// SegmentsDone counts completed segments.
	SegmentsDone int
	// StepPercent is the trivial step-counting baseline: completed
	// segments over total segments (the "steps completed" indicators the
	// paper's introduction criticizes).
	StepPercent float64
	// OptimizerRemainingSeconds is the trivial optimizer-only baseline:
	// the initial cost estimate divided by an assumed unloaded speed,
	// minus elapsed time (floored at zero).
	OptimizerRemainingSeconds float64
	// CurrentP is the current segment's dominant-input fraction p, and
	// CurrentE1/CurrentE the blend's inputs E1 and output E (rows); all
	// zero when no segment is mid-execution.
	CurrentP, CurrentE1, CurrentE float64
	// Finished is true for the final snapshot.
	Finished bool
}

// inputState tracks one segment input at runtime.
type inputState struct {
	firstTuples int64
	firstBytes  float64
	totalBytes  float64
	exact       bool
}

// segState tracks one segment at runtime.
type segState struct {
	seg *segment.Segment

	started bool
	done    bool

	inputs []inputState

	outTuples int64
	outBytes  float64

	// doneBytes is all U work attributed to this segment so far (inputs
	// over all passes + outputs + multi-stage extra).
	doneBytes float64

	// startT and endT bound the segment's active period (virtual time);
	// segments execute one at a time, so observed per-segment speeds are
	// doneBytes over that span.
	startT, endT float64

	// e1 is the output-cardinality estimate fixed at segment start.
	e1      float64
	e1Valid bool

	// lastDom is the dominant-input slot that most recently supplied p
	// (-1 before any dominant progress); a change is a dominant-input
	// switch, observable only for two-dominant (sort-merge) segments.
	lastDom int
}

// Indicator is the progress indicator. It implements
// segment.WorkReporter; wire it into exec.Env.Reporter.
type Indicator struct {
	clock  *vclock.Clock
	decomp *segment.Decomposition
	opts   Options

	segs      []*segState
	startTime float64
	finished  bool

	totalDone float64 // bytes of U work done, all segments

	samples []sample // trailing work samples for speed
	ewma    float64
	ewmaOK  bool

	initTotalBytes float64

	snapshots   []Snapshot
	subscribers []func(Snapshot)

	updateTicker *vclock.Ticker
	sampleTicker *vclock.Ticker
}

type sample struct {
	t   float64
	cum float64
}

// New builds an Indicator for one decomposed plan. Call Start just before
// executing the query.
func New(clock *vclock.Clock, decomp *segment.Decomposition, opts Options) *Indicator {
	ind := &Indicator{
		clock:  clock,
		decomp: decomp,
		opts:   opts.withDefaults(),
	}
	for _, s := range decomp.Segments {
		ind.segs = append(ind.segs, &segState{
			seg:     s,
			inputs:  make([]inputState, len(s.Inputs)),
			lastDom: -1,
		})
	}
	ind.initTotalBytes = decomp.TotalInitCost()
	return ind
}

// Start begins monitoring: records the start time and registers the
// snapshot and speed-sampling tickers.
func (ind *Indicator) Start() {
	ind.startTime = ind.clock.Now()
	ind.samples = append(ind.samples[:0], sample{t: ind.startTime, cum: 0})
	ind.sampleTicker = ind.clock.AddTicker(ind.opts.SamplePeriod, ind.onSample)
	ind.updateTicker = ind.clock.AddTicker(ind.opts.UpdatePeriod, ind.onUpdate)
}

// Stop detaches the tickers; called automatically when the final segment
// completes.
func (ind *Indicator) Stop() {
	if ind.updateTicker != nil {
		ind.clock.RemoveTicker(ind.updateTicker)
		ind.updateTicker = nil
	}
	if ind.sampleTicker != nil {
		ind.clock.RemoveTicker(ind.sampleTicker)
		ind.sampleTicker = nil
	}
}

// Snapshots returns the recorded history (the paper's Section 6 notes
// that keeping this history enables performance tuning and triggers).
func (ind *Indicator) Snapshots() []Snapshot { return ind.snapshots }

// Subscribe registers fn to receive every snapshot as it is taken.
func (ind *Indicator) Subscribe(fn func(Snapshot)) {
	ind.subscribers = append(ind.subscribers, fn)
}

// InitialTotalU returns the optimizer's initial query cost estimate in U.
func (ind *Indicator) InitialTotalU() float64 {
	return ind.initTotalBytes / storage.PageSize
}

// --- WorkReporter implementation ---

func (ind *Indicator) addWork(b float64) { ind.totalDone += b }

func (ind *Indicator) markStarted(ss *segState) {
	if !ss.started {
		ss.started = true
		ss.startT = ind.clock.Now()
	}
}

// InputTuple implements segment.WorkReporter.
func (ind *Indicator) InputTuple(seg, input int, bytes int) {
	ss := ind.segs[seg]
	ind.markStarted(ss)
	in := &ss.inputs[input]
	in.firstTuples++
	in.firstBytes += float64(bytes)
	in.totalBytes += float64(bytes)
	ss.doneBytes += float64(bytes)
	ind.addWork(float64(bytes))
}

// InputBulk implements segment.WorkReporter.
func (ind *Indicator) InputBulk(seg, input int, tuples int64, bytes float64) {
	ss := ind.segs[seg]
	ind.markStarted(ss)
	in := &ss.inputs[input]
	in.firstTuples += tuples
	in.firstBytes += bytes
	in.totalBytes += bytes
	ss.doneBytes += bytes
	ind.addWork(bytes)
}

// InputRepeat implements segment.WorkReporter.
func (ind *Indicator) InputRepeat(seg, input int, tuples int64, bytes float64) {
	ss := ind.segs[seg]
	ind.markStarted(ss)
	in := &ss.inputs[input]
	in.totalBytes += bytes
	ss.doneBytes += bytes
	ind.addWork(bytes)
}

// InputDone implements segment.WorkReporter.
func (ind *Indicator) InputDone(seg, input int) {
	ind.segs[seg].inputs[input].exact = true
}

// OutputTuple implements segment.WorkReporter.
func (ind *Indicator) OutputTuple(seg int, bytes int) {
	ss := ind.segs[seg]
	ind.markStarted(ss)
	ss.outTuples++
	ss.outBytes += float64(bytes)
	ss.doneBytes += float64(bytes)
	ind.addWork(float64(bytes))
}

// Extra implements segment.WorkReporter.
func (ind *Indicator) Extra(seg int, bytes float64) {
	ss := ind.segs[seg]
	ind.markStarted(ss)
	ss.doneBytes += bytes
	ind.addWork(bytes)
}

// SegmentDone implements segment.WorkReporter. Segment boundaries are
// the vclock multi-worker sync points: the per-query worker clock
// publishes into the shared clock group here, so the engine-wide
// timeline max-merges at exactly the paper's pipeline-segment
// granularity.
func (ind *Indicator) SegmentDone(seg int) {
	ind.clock.Sync()
	ss := ind.segs[seg]
	ss.done = true
	ss.endT = ind.clock.Now()
	for i := range ss.inputs {
		ss.inputs[i].exact = true
	}
	ind.opts.Refine.SegmentsCompleted.Inc()
	ind.opts.Events.Emit("segment_done", ss.endT, map[string]any{
		"segment":  seg,
		"out_rows": ss.outTuples,
		"out_b":    ss.outBytes,
		"done_u":   ss.doneBytes / storage.PageSize,
		"start_t":  ss.startT,
	})
	if seg == len(ind.segs)-1 && !ind.finished {
		ind.finished = true
		ind.takeSnapshot()
		ind.Stop()
	}
}

// --- estimation (Sections 4.3 and 4.5) ---

// inputEst returns the current refined estimate for one input of segment
// ss, given the already-propagated output estimates of lower segments.
func (ind *Indicator) inputEst(ss *segState, idx int, outEsts []segment.Est) segment.Est {
	in := &ss.inputs[idx]
	si := ss.seg.Inputs[idx]
	if !si.Base {
		child := ind.segs[si.Child.ID]
		if child.done {
			// Exact: the lower segment's observed output.
			return segment.Est{Card: float64(child.outTuples), Width: avg(child.outBytes, child.outTuples, si.Init.Width)}
		}
		return outEsts[si.Child.ID]
	}
	// Base input: the two-case rule of Section 4.3.
	card := si.Init.Card
	if in.exact {
		card = float64(in.firstTuples)
	} else if float64(in.firstTuples) > card {
		card = float64(in.firstTuples)
	}
	width := si.Init.Width
	if in.firstTuples > 0 {
		width = in.firstBytes / float64(in.firstTuples)
	}
	return segment.Est{Card: card, Width: width}
}

func avg(bytes float64, tuples int64, fallback float64) float64 {
	if tuples > 0 {
		return bytes / float64(tuples)
	}
	return fallback
}

// dominantFraction computes p, the fraction of the dominant input(s)
// processed, using refined input cardinalities (max of the per-input
// fractions for two dominant inputs, per the paper's sort-merge rule).
func (ind *Indicator) dominantFraction(ss *segState, outEsts []segment.Est) float64 {
	p := 0.0
	best := -1
	for _, di := range ss.seg.Dominant {
		est := ind.inputEst(ss, di, outEsts)
		var q float64
		if est.Card > 0 {
			q = float64(ss.inputs[di].firstTuples) / est.Card
		} else if ss.inputs[di].firstTuples > 0 {
			q = 1
		}
		if q > 1 {
			q = 1
		}
		if q > p || best < 0 {
			p = q
			best = di
		}
	}
	if best >= 0 && ss.inputs[best].firstTuples > 0 {
		if ss.lastDom >= 0 && best != ss.lastDom {
			ind.opts.Refine.DominantSwitches.Inc()
		}
		ss.lastDom = best
	}
	return p
}

// estimate recomputes, in execution order, every segment's output
// estimate and cost, and returns the total estimated query cost in bytes.
// This is the paper's refinement procedure: exact costs for finished
// segments, the blended E = p·E2 + (1−p)·E1 for the current segment, and
// re-invocation of the cost module for future segments with propagated
// estimates.
// estimation is the result of one refinement pass.
type estimation struct {
	totalBytes float64
	current    int
	// segCost is the estimated total cost (bytes) per segment.
	segCost []float64
	// ioShare is each segment's estimated fraction of disk-resident
	// bytes (filled only when PerSegmentSpeed is enabled).
	ioShare []float64
	// p, e1 and e are the current segment's blend internals: the
	// dominant-input fraction, the optimizer estimate fixed at segment
	// start, and the blended output-cardinality estimate.
	p, e1, e float64
}

func (ind *Indicator) estimate() estimation {
	outEsts := make([]segment.Est, len(ind.segs))
	est := estimation{
		current: -1,
		segCost: make([]float64, len(ind.segs)),
	}
	if ind.opts.PerSegmentSpeed {
		est.ioShare = make([]float64, len(ind.segs))
	}
	for i, ss := range ind.segs {
		inputs := make([]segment.Est, len(ss.inputs))
		for j := range inputs {
			inputs[j] = ind.inputEst(ss, j, outEsts)
		}
		if est.ioShare != nil {
			est.ioShare[i] = ind.decomp.IOShare(ss.seg, inputs)
		}
		switch {
		case ss.done:
			est.segCost[i] = ss.doneBytes
			outEsts[i] = segment.Est{
				Card:  float64(ss.outTuples),
				Width: avg(ss.outBytes, ss.outTuples, ss.seg.InitOut.Width),
			}
		case ss.started:
			if est.current < 0 {
				est.current = i
			}
			evalOut, evalCost := ind.decomp.EvalSegment(ss.seg, inputs)
			if !ss.e1Valid {
				// E1 is fixed when the segment starts (the optimizer's
				// estimate given what was known at that moment).
				ss.e1 = evalOut.Card
				ss.e1Valid = true
			}
			p := ind.dominantFraction(ss, outEsts)
			e := ss.e1
			if p > 0 {
				e2 := float64(ss.outTuples) / p
				switch ind.opts.Estimator {
				case EstimatorStatic:
					// keep E1
				case EstimatorLinear:
					e = e2
				default:
					e = p*e2 + (1-p)*ss.e1
				}
			}
			width := avg(ss.outBytes, ss.outTuples, evalOut.Width)
			if est.current == i {
				est.p, est.e1, est.e = p, ss.e1, e
			}
			outEsts[i] = segment.Est{Card: e, Width: width}
			cost := evalCost
			if !ss.seg.Final {
				// Replace the module's output term with the blended one.
				cost = evalCost - evalOut.Bytes() + e*width
			}
			if cost < ss.doneBytes {
				cost = ss.doneBytes
			}
			est.segCost[i] = cost
		default:
			evalOut, evalCost := ind.decomp.EvalSegment(ss.seg, inputs)
			outEsts[i] = evalOut
			est.segCost[i] = evalCost
		}
		est.totalBytes += est.segCost[i]
	}
	return est
}

// remainingSeconds converts remaining U to time. The default is the
// paper's conversion: all remaining bytes at the single observed speed.
// With PerSegmentSpeed, future segments use a predicted rate from their
// disk/memory byte mix scaled by the currently observed load (Section
// 4.6's suggested refinement).
func (ind *Indicator) remainingSeconds(est estimation, speed float64) float64 {
	if speed <= 0 {
		return math.Inf(1)
	}
	if !ind.opts.PerSegmentSpeed || est.ioShare == nil {
		return (est.totalBytes - ind.totalDone) / speed
	}
	ioTPB := ind.clock.Costs().SeqPage / storage.PageSize // seconds per byte from disk
	memTPB := ioTPB / memSpeedup
	pred := func(i int) float64 {
		s := est.ioShare[i]
		return s*ioTPB + (1-s)*memTPB
	}
	// The load factor compares the observed time-per-byte of the current
	// segment against its unloaded prediction, capturing both system
	// load and model miscalibration.
	load := 1.0
	if est.current >= 0 {
		if p := pred(est.current); p > 0 {
			load = (1 / speed) / p
		}
	}
	rem := 0.0
	for i, ss := range ind.segs {
		if ss.done {
			continue
		}
		segRem := math.Max(0, est.segCost[i]-ss.doneBytes)
		if i == est.current {
			rem += segRem / speed
		} else {
			rem += segRem * pred(i) * load
		}
	}
	return rem
}

// --- speed monitoring (Section 4.6) ---

func (ind *Indicator) onSample(now float64) {
	if len(ind.samples) > 0 && ind.opts.DecayAlpha > 0 {
		last := ind.samples[len(ind.samples)-1]
		if dt := now - last.t; dt > 0 {
			inst := (ind.totalDone - last.cum) / dt
			if ind.ewmaOK {
				ind.ewma = ind.opts.DecayAlpha*inst + (1-ind.opts.DecayAlpha)*ind.ewma
			} else {
				ind.ewma = inst
				ind.ewmaOK = true
			}
		}
	}
	ind.samples = append(ind.samples, sample{t: now, cum: ind.totalDone})
	// Prune samples older than the window (keep one beyond the edge for
	// interpolation).
	cutoff := now - ind.opts.SpeedWindow
	firstKeep := 0
	for i := len(ind.samples) - 1; i >= 0; i-- {
		if ind.samples[i].t <= cutoff {
			firstKeep = i
			break
		}
	}
	ind.samples = ind.samples[firstKeep:]
}

// speed returns the monitored execution speed in bytes per virtual
// second: work done in the trailing SpeedWindow seconds (or the overall
// average before a full window has elapsed), or the decayed average when
// enabled.
func (ind *Indicator) speed(now float64) float64 {
	if ind.opts.DecayAlpha > 0 && ind.ewmaOK {
		return ind.ewma
	}
	elapsed := now - ind.startTime
	if elapsed <= 0 {
		return 0
	}
	if len(ind.samples) == 0 || elapsed < ind.opts.SpeedWindow {
		return ind.totalDone / elapsed
	}
	base := ind.samples[0]
	dt := now - base.t
	if dt <= 0 {
		return ind.totalDone / elapsed
	}
	return (ind.totalDone - base.cum) / dt
}

// --- snapshots ---

func (ind *Indicator) onUpdate(float64) {
	if !ind.finished {
		ind.takeSnapshot()
	}
}

func (ind *Indicator) takeSnapshot() {
	// Publishing a report is a sync point for the shared clock group
	// (no-op on a groupless clock): Report always reflects this worker's
	// latest progress in the merged timeline.
	ind.clock.Sync()
	snap := ind.buildSnapshot()
	ind.snapshots = append(ind.snapshots, snap)
	ind.observe(snap)
	for _, fn := range ind.subscribers {
		fn(snap)
	}
}

// observe publishes one snapshot to the refinement instruments and the
// structured event log; all sinks are nil-safe no-ops when disabled.
func (ind *Indicator) observe(snap Snapshot) {
	m := ind.opts.Refine
	m.Refreshes.Inc()
	m.SegmentP.Set(snap.CurrentP)
	m.BlendE1.Set(snap.CurrentE1)
	m.BlendE.Set(snap.CurrentE)
	m.EstTotalU.Set(snap.EstTotalU)
	m.RemainingSeconds.Set(snap.RemainingSeconds)
	m.RefreshU.Observe(snap.EstTotalU)
	ind.opts.Events.Emit("progress", snap.Time, map[string]any{
		"percent":       snap.Percent,
		"done_u":        snap.DoneU,
		"est_total_u":   snap.EstTotalU,
		"speed_u":       snap.SpeedU,
		"remaining_s":   snap.RemainingSeconds,
		"segment":       snap.CurrentSegment,
		"segments_done": snap.SegmentsDone,
		"p":             snap.CurrentP,
		"e1":            snap.CurrentE1,
		"e":             snap.CurrentE,
		"finished":      snap.Finished,
	})
}

// Current returns an on-demand snapshot without recording it.
func (ind *Indicator) Current() Snapshot { return ind.buildSnapshot() }

func (ind *Indicator) buildSnapshot() Snapshot {
	now := ind.clock.Now()
	est := ind.estimate()
	if est.totalBytes < ind.totalDone {
		est.totalBytes = ind.totalDone
	}
	speed := ind.speed(now)

	done := 0
	for _, ss := range ind.segs {
		if ss.done {
			done++
		}
	}

	snap := Snapshot{
		Time:           now,
		Elapsed:        now - ind.startTime,
		EstTotalU:      est.totalBytes / storage.PageSize,
		DoneU:          ind.totalDone / storage.PageSize,
		SpeedU:         speed / storage.PageSize,
		CurrentSegment: est.current,
		SegmentsDone:   done,
		CurrentP:       est.p,
		CurrentE1:      est.e1,
		CurrentE:       est.e,
		Finished:       ind.finished,
	}
	if est.totalBytes > 0 {
		snap.Percent = 100 * ind.totalDone / est.totalBytes
	}
	if ind.finished {
		snap.Percent = 100
		snap.RemainingSeconds = 0
		snap.CurrentSegment = -1
	} else {
		snap.RemainingSeconds = ind.remainingSeconds(est, speed)
	}
	if n := len(ind.segs); n > 0 {
		snap.StepPercent = 100 * float64(done) / float64(n)
	}
	optTotal := ind.initTotalBytes / ind.optimizerBytesPerSec()
	snap.OptimizerRemainingSeconds = math.Max(0, optTotal-snap.Elapsed)
	return snap
}
