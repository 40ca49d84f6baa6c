// Package history ranks and summarizes the profiles finished queries
// leave behind. The paper's indicator is something a user watches live;
// König et al.'s critique (judging an estimator needs the whole
// progress-vs-time trajectory of *completed* queries) is why a finished
// query keeps a profile instead of evaporating with its SSE stream. The
// profiles themselves live on the server's job ledger, which bounds
// them; what is here is pure functions over them.
package history

import (
	"cmp"
	"slices"

	"progressdb/client"
)

// Sort orders for Rank.
const (
	// SortFinished ranks newest-terminal-first (the default).
	SortFinished = "finished"
	// SortDuration ranks by virtual execution time, longest first.
	SortDuration = "duration"
	// SortQError ranks by mean remaining-time q-error, worst first —
	// the "which queries did the estimator fail on" view.
	SortQError = "qerror"
)

// Rank returns ranked summaries of profiles, which arrive newest-
// terminal-first. sortBy is one of the Sort constants (unknown values
// fall back to SortFinished); equal keys keep their newest-first order;
// limit caps the result length (<= 0 means all).
func Rank(profiles []*client.QueryProfile, sortBy string, limit int) []client.HistorySummary {
	out := make([]client.HistorySummary, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, Summarize(p))
	}
	switch sortBy {
	case SortDuration:
		slices.SortStableFunc(out, func(a, b client.HistorySummary) int {
			return cmp.Compare(b.VirtualSecs, a.VirtualSecs)
		})
	case SortQError:
		slices.SortStableFunc(out, func(a, b client.HistorySummary) int {
			return cmp.Compare(b.MeanRemainingQError, a.MeanRemainingQError)
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Summarize reduces a profile to its listing row.
func Summarize(p *client.QueryProfile) client.HistorySummary {
	return client.HistorySummary{
		ID:                  p.Query.ID,
		Name:                p.Query.Name,
		State:               p.Query.State,
		FinishedAtMS:        p.Query.FinishedAtMS,
		VirtualSecs:         p.Query.VirtualSeconds,
		Events:              len(p.Events),
		Segments:            len(p.Segments),
		MeanRemainingQError: MeanQError(p.RemainingQError),
		Error:               p.Query.Error,
	}
}

// MeanQError averages the defined (>= 1) entries of a q-error
// trajectory, returning -1 when none are defined.
func MeanQError(qerrs []float64) float64 {
	var sum float64
	n := 0
	for _, q := range qerrs {
		if q >= 1 {
			sum += q
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}
