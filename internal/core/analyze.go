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
// goes during query execution". It is the one segment record from the
// indicator to the wire: the engine's plan report and the server's
// history profile carry it as it is made.
type SegmentReport struct {
	// ID is the segment's execution-order index.
	ID int `json:"id"`
	// Kind classifies the segment's blocking root.
	Kind segment.Kind `json:"kind"`
	// Root labels the segment's top operator.
	Root string `json:"root"`
	// EstCostU and ActualCostU compare the optimizer's initial segment
	// cost with the work actually done, in U.
	EstCostU    float64 `json:"est_cost_u"`
	ActualCostU float64 `json:"actual_cost_u"`
	// EstOutRows is the optimizer's output estimate E1 and ActualOutRows
	// the observed output: -1 for the final segment, whose output is the
	// result set and is not U-accounted.
	EstOutRows    float64 `json:"est_rows"`
	ActualOutRows float64 `json:"actual_rows"`
	// QError is QError(EstOutRows, ActualOutRows): -1 where either side
	// is missing or zero.
	QError float64 `json:"q_error"`
	// StartT and EndT bound the segment's active period in seconds since
	// the indicator started, the axis of Snapshot.Elapsed (both zero if
	// the segment never started; EndT is the current time for a segment
	// still running).
	StartT float64 `json:"start_seconds"`
	EndT   float64 `json:"end_seconds"`
	// Done reports whether the segment completed (false only if the
	// query failed or was cut short).
	Done bool `json:"done"`
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
		if ss.started || ss.done {
			// A segment can end without a start, when no input row
			// reached it: its unset startT reads as the indicator's start.
			r.ActualOutRows = float64(ss.seg.Count.OutTuples)
			end := ss.endT
			if !ss.done {
				end = ind.clock.Ticks()
			}
			r.StartT, r.EndT = ind.Since(max(ss.startT, ind.startTime)), ind.Since(end)
		}
		if ss.seg.Final {
			// The final segment's output is the result set: not counted
			// in U and not observed here (exec.Run returns the row
			// count). Mark it unavailable.
			r.ActualOutRows = -1
		}
		r.QError = QError(r.EstOutRows, r.ActualOutRows)
		out[i] = r
	}
	return out
}

// Since is the seconds from the indicator's start to tick t.
func (ind *Indicator) Since(t int64) float64 { return vclock.Seconds(t - ind.startTime) }

// QError is an estimate's error factor max(est/actual, actual/est): 1 for
// an exact estimate. It is -1, which no factor is, unless both sides are
// positive; each printer spells that case its own way.
func QError(est, actual float64) float64 {
	if est <= 0 || actual <= 0 {
		return -1
	}
	return math.Max(est/actual, actual/est)
}
