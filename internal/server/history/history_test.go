package history

import (
	"testing"

	"progressdb/client"
)

func profile(id string, finishedMS int64, vsecs float64, qerrs ...float64) *client.QueryProfile {
	return &client.QueryProfile{
		Query: client.QueryInfo{
			ID:             id,
			Name:           id,
			State:          client.StateDone,
			FinishedAtMS:   finishedMS,
			VirtualSeconds: vsecs,
		},
		Events:          []client.ProgressEvent{{Seq: 1}, {Seq: 2, State: client.StateDone}},
		RemainingQError: qerrs,
	}
}

func TestRankedListings(t *testing.T) {
	// Newest terminal first, as the ledger hands them over.
	ps := []*client.QueryProfile{
		profile("wrong", 3000, 50, 9, 11),
		profile("slow", 2000, 500, 1.05),
		profile("fast", 1000, 5, 1.1, 1.2),
		profile("fast2", 500, 5),
	}
	byFin := Rank(ps, SortFinished, 0)
	for i, want := range []string{"wrong", "slow", "fast", "fast2"} {
		if byFin[i].ID != want {
			t.Fatalf("finished rank[%d] = %s, want %s", i, byFin[i].ID, want)
		}
	}
	byDur := Rank(ps, SortDuration, 0)
	if byDur[0].ID != "slow" || byDur[2].ID != "fast" || byDur[3].ID != "fast2" {
		t.Fatalf("duration rank = %+v, want slow first and the tie newest-first", byDur)
	}
	byQ := Rank(ps, SortQError, 2)
	if len(byQ) != 2 || byQ[0].ID != "wrong" {
		t.Fatalf("qerror rank = %+v, want wrong first, 2 entries", byQ)
	}
	if got := byQ[0].MeanRemainingQError; got != 10 {
		t.Fatalf("mean q-error = %g, want 10", got)
	}
	if ps[0].Query.ID != "wrong" {
		t.Fatal("Rank reordered its input")
	}
}

func TestMeanQErrorUndefined(t *testing.T) {
	if got := MeanQError(nil); got != -1 {
		t.Fatalf("MeanQError(nil) = %g, want -1", got)
	}
	if got := MeanQError([]float64{-1, -1}); got != -1 {
		t.Fatalf("MeanQError(all undefined) = %g, want -1", got)
	}
}
