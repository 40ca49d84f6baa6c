package progressdb

import "fmt"

// checkReports checks the indicator's contract on one query's reports,
// in delivery order: DoneU, ElapsedSeconds and SegmentsDone never
// decrease, Percent stays in [0, 100], and a Finished report comes at
// most once and only last — exactly once when the query succeeded — and
// reads 100 % with its estimated cost equal to its DoneU. segs,
// when non-nil, is the succeeded query's Result.Segments: every byte the
// indicator counts belongs to one segment, so the terminal DoneU equals
// their summed ActualCostU exactly. The comparisons are exact; U is a sum
// of whole bytes over a power-of-two page size.
func checkReports(reps []Report, succeeded bool, segs []SegmentStats) error {
	finished := 0
	for i, r := range reps {
		if r.Percent < 0 || r.Percent > 100 {
			return fmt.Errorf("report %d: Percent %g outside [0,100]", i, r.Percent)
		}
		if i > 0 {
			p := reps[i-1]
			if r.DoneU < p.DoneU || r.ElapsedSeconds < p.ElapsedSeconds || r.SegmentsDone < p.SegmentsDone {
				return fmt.Errorf("report %d went backwards: DoneU %g→%g, elapsed %g→%g, segments %d→%d",
					i, p.DoneU, r.DoneU, p.ElapsedSeconds, r.ElapsedSeconds, p.SegmentsDone, r.SegmentsDone)
			}
		}
		if r.Finished {
			if finished++; i != len(reps)-1 {
				return fmt.Errorf("Finished report %d of %d is not the last", i, len(reps))
			}
			if r.Percent != 100 || r.EstimatedCostU != r.DoneU {
				return fmt.Errorf("Finished report reads %g%%, EstimatedCostU %v, DoneU %v: want 100%% and the two equal",
					r.Percent, r.EstimatedCostU, r.DoneU)
			}
		}
	}
	if succeeded && finished != 1 {
		return fmt.Errorf("succeeded with %d Finished reports, want 1", finished)
	}
	if segs != nil && finished == 1 {
		sum := 0.0
		for _, s := range segs {
			sum += s.ActualCostU
		}
		if done := reps[len(reps)-1].DoneU; done != sum {
			return fmt.Errorf("terminal DoneU %v != %v, the segments' summed ActualCostU", done, sum)
		}
	}
	return nil
}
