// Package core implements the paper's contribution: a continuously
// refined progress indicator for SPJ queries.
//
// The Indicator is a segment.WorkReporter wired into the executor. It
// reads the boundary bytes the executor counts in the plan's counter block
// (internal/segment/counts.go) at each refresh and keeps, per segment:
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
// (Section 4.6, T = 10 s by default). Remaining time is the estimated
// remaining U divided by the observed speed.
package core

import (
	"math"

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
	// virtual seconds (default 10, the paper's choice). The work counter
	// is sampled every T/10 seconds.
	SpeedWindow float64
	// Refine holds the engine-wide refinement instruments; the zero value
	// is disabled (every update is a nil-safe no-op).
	Refine RefinementMetrics

	// estimator selects the current segment's output estimator. Only
	// this package's tests set it: the static and linear estimators are
	// the references the paper's blend is measured against.
	estimator EstimatorMode
}

// EstimatorMode names a Section 4.5 output estimator.
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

func (o Options) withDefaults() Options {
	if o.UpdatePeriod <= 0 {
		o.UpdatePeriod = 10
	}
	if o.SpeedWindow <= 0 {
		o.SpeedWindow = 10
	}
	return o
}

// Snapshot is one refresh of the progress display (the paper's Figure 2
// fields, plus the step-counting baseline its introduction criticizes).
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
	// CurrentP is the current segment's dominant-input fraction p, and
	// CurrentE1/CurrentE the blend's inputs E1 and output E (rows); all
	// zero when no segment is mid-execution.
	CurrentP, CurrentE1, CurrentE float64
	// Finished is true for the final snapshot.
	Finished bool
}

// segState tracks one segment at runtime. Its counts are the segment's
// and its inputs' in the plan's counter block.
type segState struct {
	seg *segment.Segment
	// exact marks the inputs whose first pass is complete.
	exact []bool

	// startT and endT bound the segment's active period (virtual time);
	// segments execute one at a time, so observed per-segment speeds are
	// doneBytes over that span.
	startT, endT float64

	// e1 is the output-cardinality estimate fixed at segment start.
	e1 float64

	// lastDom is the dominant-input slot that most recently supplied p
	// (-1 before any dominant progress); a change is a dominant-input
	// switch, observable only for two-dominant (sort-merge) segments.
	lastDom int

	started, done, e1Valid bool
}

// doneBytes is all U work attributed to the segment so far: its inputs
// over all passes, its outputs and its multi-stage extra.
func (ss *segState) doneBytes() float64 {
	b := ss.seg.Count.OutBytes + ss.seg.Count.ExtraBytes
	for _, in := range ss.seg.Inputs {
		b += in.Count.Bytes + in.Count.RepeatBytes
	}
	return float64(b)
}

// Indicator is the progress indicator. It implements
// segment.WorkReporter; wire it into exec.Env.Reporter.
type Indicator struct {
	clock  *vclock.Clock
	decomp *segment.Decomposition
	opts   Options

	segs      []segState
	startTime float64
	finished  bool

	samples []sample // trailing work samples for speed

	initTotalBytes float64

	snapshots   []Snapshot
	subscribers []func(Snapshot)

	// estimate's scratch, rewritten by every refresh: an Indicator is
	// driven by one goroutine, and no Snapshot keeps these.
	outEsts, inputs []segment.Est

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
		segs:   make([]segState, len(decomp.Segments)),
	}
	n := 0
	for _, s := range decomp.Segments {
		n += len(s.Inputs)
	}
	exact := make([]bool, n)
	for i, s := range decomp.Segments {
		k := len(s.Inputs)
		ind.segs[i] = segState{seg: s, exact: exact[:k:k], lastDom: -1}
		exact = exact[k:]
	}
	ind.initTotalBytes = decomp.TotalInitCost()
	ind.outEsts = make([]segment.Est, len(ind.segs))
	return ind
}

// Start begins monitoring: records the start time and registers the
// snapshot ticker and the speed-sampling ticker, which samples ten
// times per window T.
func (ind *Indicator) Start() {
	ind.startTime = ind.clock.Now()
	ind.samples = append(ind.samples[:0], sample{t: ind.startTime, cum: 0})
	ind.sampleTicker = ind.clock.AddTicker(ind.opts.SpeedWindow/10, ind.onSample)
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

// Decomposition returns the plan the indicator tracks, whose counter
// block it reads.
func (ind *Indicator) Decomposition() *segment.Decomposition { return ind.decomp }

// InitialTotalU returns the optimizer's initial query cost estimate in U.
func (ind *Indicator) InitialTotalU() float64 {
	return ind.initTotalBytes / storage.PageSize
}

// --- WorkReporter implementation ---

// totalDone is the bytes of U work done so far, all segments.
func (ind *Indicator) totalDone() float64 {
	t := 0.0
	for i := range ind.segs {
		t += ind.segs[i].doneBytes()
	}
	return t
}

func (ind *Indicator) markStarted(ss *segState) {
	if !ss.started {
		ss.started = true
		ss.startT = ind.clock.Now()
	}
}

// InputTuple implements segment.WorkReporter: it starts the segment and
// adds the tuple to the counter block.
func (ind *Indicator) InputTuple(seg, input int, bytes int) {
	ss := &ind.segs[seg]
	ind.markStarted(ss)
	in := &ss.seg.Inputs[input].Count
	in.Tuples++
	in.Bytes += int64(bytes)
}

// InputBulk implements segment.WorkReporter.
func (ind *Indicator) InputBulk(seg, input int, tuples int64, bytes float64) {
	ss := &ind.segs[seg]
	ind.markStarted(ss)
	in := &ss.seg.Inputs[input].Count
	in.Tuples += tuples
	in.Bytes += int64(bytes)
}

// InputRepeat implements segment.WorkReporter.
func (ind *Indicator) InputRepeat(seg, input int, tuples int64, bytes float64) {
	ss := &ind.segs[seg]
	ind.markStarted(ss)
	ss.seg.Inputs[input].Count.RepeatBytes += int64(bytes)
}

// InputDone implements segment.WorkReporter.
func (ind *Indicator) InputDone(seg, input int) {
	ind.segs[seg].exact[input] = true
}

// OutputTuple implements segment.WorkReporter: it starts the segment and
// adds the tuple to the counter block.
func (ind *Indicator) OutputTuple(seg int, bytes int) {
	ss := &ind.segs[seg]
	ind.markStarted(ss)
	ss.seg.Count.OutTuples++
	ss.seg.Count.OutBytes += int64(bytes)
}

// Extra implements segment.WorkReporter: it starts the segment and adds
// the bytes to the counter block.
func (ind *Indicator) Extra(seg int, bytes float64) {
	ss := &ind.segs[seg]
	ind.markStarted(ss)
	ss.seg.Count.ExtraBytes += int64(bytes)
	ss.seg.Count.Extras++
}

// SegmentDone implements segment.WorkReporter. Segment boundaries are
// the vclock multi-worker sync points: the per-query worker clock
// publishes into the shared clock group here, so the engine-wide
// timeline max-merges at exactly the paper's pipeline-segment
// granularity.
func (ind *Indicator) SegmentDone(seg int) {
	ind.clock.Sync()
	ss := &ind.segs[seg]
	ss.done = true
	ss.endT = ind.clock.Now()
	for i := range ss.exact {
		ss.exact[i] = true
	}
	ind.opts.Refine.SegmentsCompleted.Inc()
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
	si := ss.seg.Inputs[idx]
	in := &si.Count
	if !si.Base {
		child := &ind.segs[si.Child.ID]
		if child.done {
			// Exact: the lower segment's observed output.
			return segment.Est{Card: float64(child.seg.Count.OutTuples), Width: avg(child.seg.Count.OutBytes, child.seg.Count.OutTuples, si.Init.Width)}
		}
		return outEsts[si.Child.ID]
	}
	// Base input: the two-case rule of Section 4.3.
	card := si.Init.Card
	if ss.exact[idx] {
		card = float64(in.Tuples)
	} else if float64(in.Tuples) > card {
		card = float64(in.Tuples)
	}
	width := si.Init.Width
	if in.Tuples > 0 {
		width = float64(in.Bytes) / float64(in.Tuples)
	}
	return segment.Est{Card: card, Width: width}
}

func avg(bytes, tuples int64, fallback float64) float64 {
	if tuples > 0 {
		return float64(bytes) / float64(tuples)
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
			q = float64(ss.seg.Inputs[di].Count.Tuples) / est.Card
		} else if ss.seg.Inputs[di].Count.Tuples > 0 {
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
	if best >= 0 && ss.seg.Inputs[best].Count.Tuples > 0 {
		if ss.lastDom >= 0 && best != ss.lastDom {
			ind.opts.Refine.DominantSwitches.Inc()
		}
		ss.lastDom = best
	}
	return p
}

// estimation is the result of one refinement pass.
type estimation struct {
	totalBytes float64
	current    int
	// p, e1 and e are the current segment's blend internals: the
	// dominant-input fraction, the optimizer estimate fixed at segment
	// start, and the blended output-cardinality estimate.
	p, e1, e float64
}

// estimate recomputes, in execution order, every segment's output
// estimate and cost, and returns the total estimated query cost in bytes.
// This is the paper's refinement procedure: exact costs for finished
// segments, the blended E = p·E2 + (1−p)·E1 for the current segment, and
// re-invocation of the cost module for future segments with propagated
// estimates.
func (ind *Indicator) estimate() estimation {
	outEsts := ind.outEsts
	est := estimation{current: -1}
	for i := range ind.segs {
		ss := &ind.segs[i]
		inputs := ind.inputs[:0]
		for j := range ss.exact {
			inputs = append(inputs, ind.inputEst(ss, j, outEsts))
		}
		ind.inputs = inputs
		var cost float64
		switch {
		case ss.done:
			cost = ss.doneBytes()
			outEsts[i] = segment.Est{
				Card:  float64(ss.seg.Count.OutTuples),
				Width: avg(ss.seg.Count.OutBytes, ss.seg.Count.OutTuples, ss.seg.InitOut.Width),
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
				e2 := float64(ss.seg.Count.OutTuples) / p
				switch ind.opts.estimator {
				case EstimatorStatic:
					// keep E1
				case EstimatorLinear:
					e = e2
				default:
					e = p*e2 + (1-p)*ss.e1
				}
			}
			width := avg(ss.seg.Count.OutBytes, ss.seg.Count.OutTuples, evalOut.Width)
			if est.current == i {
				est.p, est.e1, est.e = p, ss.e1, e
			}
			outEsts[i] = segment.Est{Card: e, Width: width}
			cost = evalCost
			if !ss.seg.Final {
				// Replace the module's output term with the blended one.
				cost = evalCost - evalOut.Bytes() + e*width
			}
			if done := ss.doneBytes(); cost < done {
				cost = done
			}
		default:
			outEsts[i], cost = ind.decomp.EvalSegment(ss.seg, inputs)
		}
		est.totalBytes += cost
	}
	return est
}

// --- speed monitoring (Section 4.6) ---

func (ind *Indicator) onSample(now float64) {
	ind.samples = append(ind.samples, sample{t: now, cum: ind.totalDone()})
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
// second, given the work done so far: work done in the trailing
// SpeedWindow seconds (or the overall average before a full window has
// elapsed).
func (ind *Indicator) speed(now, totalDone float64) float64 {
	elapsed := now - ind.startTime
	if elapsed <= 0 {
		return 0
	}
	if len(ind.samples) == 0 || elapsed < ind.opts.SpeedWindow {
		return totalDone / elapsed
	}
	base := ind.samples[0]
	dt := now - base.t
	if dt <= 0 {
		return totalDone / elapsed
	}
	return (totalDone - base.cum) / dt
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

// observe publishes one snapshot to the refinement instruments, which
// are nil-safe no-ops when disabled.
func (ind *Indicator) observe(snap Snapshot) {
	m := ind.opts.Refine
	m.Refreshes.Inc()
	m.SegmentP.Set(snap.CurrentP)
	m.BlendE1.Set(snap.CurrentE1)
	m.BlendE.Set(snap.CurrentE)
	m.EstTotalU.Set(snap.EstTotalU)
	m.RemainingSeconds.Set(snap.RemainingSeconds)
	m.RefreshU.Observe(snap.EstTotalU)
}

// Current returns an on-demand snapshot without recording it.
func (ind *Indicator) Current() Snapshot { return ind.buildSnapshot() }

func (ind *Indicator) buildSnapshot() Snapshot {
	now := ind.clock.Now()
	est := ind.estimate()
	totalDone := ind.totalDone()
	if est.totalBytes < totalDone {
		est.totalBytes = totalDone
	}
	speed := ind.speed(now, totalDone)

	done := 0
	for i := range ind.segs {
		if ind.segs[i].done {
			done++
		}
	}

	snap := Snapshot{
		Time:           now,
		Elapsed:        now - ind.startTime,
		EstTotalU:      est.totalBytes / storage.PageSize,
		DoneU:          totalDone / storage.PageSize,
		SpeedU:         speed / storage.PageSize,
		CurrentSegment: est.current,
		SegmentsDone:   done,
		CurrentP:       est.p,
		CurrentE1:      est.e1,
		CurrentE:       est.e,
		Finished:       ind.finished,
	}
	if est.totalBytes > 0 {
		snap.Percent = 100 * totalDone / est.totalBytes
	}
	switch {
	case ind.finished:
		snap.Percent = 100
		snap.CurrentSegment = -1
	case speed > 0:
		// The paper's conversion: all remaining U at the observed speed.
		snap.RemainingSeconds = (est.totalBytes - totalDone) / speed
	default:
		snap.RemainingSeconds = math.Inf(1)
	}
	if n := len(ind.segs); n > 0 {
		snap.StepPercent = 100 * float64(done) / float64(n)
	}
	return snap
}
