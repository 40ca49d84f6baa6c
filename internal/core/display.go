package core

import (
	"fmt"
	"math"
	"strings"
)

// FormatDuration renders seconds as "5 hour 3 min 7 sec", the style of
// the paper's Figure 2. The value is rounded to the nearest whole second
// BEFORE being split into fields, so a round-up carries through the
// units: 59.7 renders as "1 min 0 sec" (not "60 sec"), and
// 3599.6 as "1 hour 0 min 0 sec". NaN, negative, infinite, or absurdly
// large estimates render as "unknown".
func FormatDuration(seconds float64) string {
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 || seconds > 1e9 {
		return "unknown"
	}
	s := int64(math.Round(seconds))
	h := s / 3600
	m := (s % 3600) / 60
	sec := s % 60
	var parts []string
	if h > 0 {
		parts = append(parts, fmt.Sprintf("%d hour", h))
	}
	if m > 0 || h > 0 {
		parts = append(parts, fmt.Sprintf("%d min", m))
	}
	parts = append(parts, fmt.Sprintf("%d sec", sec))
	return strings.Join(parts, " ")
}

// Format renders a snapshot as the paper's Figure 2 progress-indicator
// box.
func Format(name string, s Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SQL name         %s\n", name)
	fmt.Fprintf(&b, "Elapsed time     %s\n", FormatDuration(s.Elapsed))
	fmt.Fprintf(&b, "Estimated time left  %s (%.0f%% done)\n",
		FormatDuration(s.RemainingSeconds), s.Percent)
	fmt.Fprintf(&b, "Estimated cost   %.0f U\n", s.EstTotalU)
	fmt.Fprintf(&b, "Execution speed  %.0f U/Sec\n", s.SpeedU)
	return b.String()
}
