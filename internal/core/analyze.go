package core

import (
	"math"

	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
)

// pageBytes converts byte counts to U.
const pageBytes = float64(storage.PageSize)

// SegmentReport summarizes one segment after execution — the raw material
// for the paper's Section 6 "performance tuning" use: "we can see whether
// the originally estimated query cost is precise enough and where time
// goes during query execution".
type SegmentReport struct {
	// ID is the segment's execution-order index.
	ID int
	// Kind classifies the segment's blocking root.
	Kind segment.Kind
	// Root labels the segment's top operator.
	Root string
	// EstCostU and ActualCostU compare the optimizer's initial segment
	// cost with the work actually done, in U.
	EstCostU, ActualCostU float64
	// EstOutRows and ActualOutRows compare output cardinalities.
	EstOutRows, ActualOutRows float64
	// StartT and EndT bound the segment's active period in virtual time
	// (both zero if the segment never started; EndT is the current time
	// for a segment still running).
	StartT, EndT float64
	// Done reports whether the segment completed (false only if the
	// query failed or was cut short).
	Done bool
}

// SegmentReports returns per-segment estimated-versus-actual figures.
// Call after execution completes.
func (ind *Indicator) SegmentReports() []SegmentReport {
	out := make([]SegmentReport, len(ind.segs))
	for i := range ind.segs {
		ss := &ind.segs[i]
		r := SegmentReport{
			ID:          i,
			Kind:        ss.seg.Kind,
			Root:        ss.seg.Root.Label(),
			EstCostU:    ss.seg.InitCost / pageBytes,
			ActualCostU: ss.doneBytes() / pageBytes,
			EstOutRows:  ss.seg.InitOut.Card,
			Done:        ss.done,
		}
		if ss.done {
			r.ActualOutRows = float64(ss.seg.Count.OutTuples)
			r.StartT, r.EndT = vclock.Seconds(ss.startT), vclock.Seconds(ss.endT)
		} else if ss.started {
			r.ActualOutRows = float64(ss.seg.Count.OutTuples)
			r.StartT, r.EndT = vclock.Seconds(ss.startT), ind.clock.Now()
		}
		if ss.seg.Final {
			// The final segment's output is the result set: not counted
			// in U and not observed here (exec.Run returns the row
			// count). Mark it unavailable.
			r.ActualOutRows = -1
		}
		out[i] = r
	}
	return out
}

// QError is an estimate's error factor max(est/actual, actual/est): 1 for
// an exact estimate. It is -1, which no factor is, unless both sides are
// positive; each printer spells that case its own way.
func QError(est, actual float64) float64 {
	if est <= 0 || actual <= 0 {
		return -1
	}
	return math.Max(est/actual, actual/est)
}
