package core

import (
	"reflect"
	"testing"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/vclock"
)

// TestSegmentReportQError pins the q-error a segment report is made with:
// max(est/actual, actual/est), and -1 wherever either side is missing or
// zero — a segment with no rows on either side, the final segment's
// unobserved rows.
func TestSegmentReportQError(t *testing.T) {
	d := &segment.Decomposition{}
	for i, c := range []struct{ est, actual float64 }{{100, 100}, {25, 100}, {100, 25}, {0, 0}, {50, 0}} {
		s := &segment.Segment{ID: i, Root: &plan.Materialize{}, Final: i == 4}
		s.InitOut.Card, s.Count.OutTuples = c.est, int64(c.actual)
		d.Segments = append(d.Segments, s)
	}
	ind := New(vclock.New(vclock.DefaultCosts(), nil), d, Options{})
	for i := range 4 {
		ind.SegmentDone(i)
	}
	var got []float64
	for _, r := range ind.SegmentReports() {
		got = append(got, r.QError)
	}
	if want := []float64{1, 4, 4, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("segment q-errors %v, want %v", got, want)
	}
}
