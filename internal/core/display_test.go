package core

import (
	"math"
	"testing"
)

// TestFormatDurationTable exercises FormatDuration's rounding-carry
// behavior: the value is rounded to a whole second before splitting into
// hour/min/sec fields, so a round-up near a unit boundary carries into
// the next unit.
func TestFormatDurationTable(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 sec"},
		{0.4, "0 sec"},
		{1, "1 sec"},
		{42, "42 sec"},
		{59.4, "59 sec"},
		// Round-up carry: 59.7 -> 60 s -> 1 min 0 sec, never "60 sec".
		{59.7, "1 min 0 sec"},
		{60, "1 min 0 sec"},
		{61, "1 min 1 sec"},
		{119.6, "2 min 0 sec"},
		{3 * 60, "3 min 0 sec"},
		// Carry across two units: 3599.6 -> 3600 s -> 1 hour 0 min 0 sec.
		{3599.6, "1 hour 0 min 0 sec"},
		{3600, "1 hour 0 min 0 sec"},
		{3600 + 59.7, "1 hour 1 min 0 sec"},
		{5*3600 + 3*60 + 7, "5 hour 3 min 7 sec"},
		// An hour with zero minutes still prints the minutes field.
		{3600 + 7, "1 hour 0 min 7 sec"},
		// Not-a-duration inputs.
		{math.NaN(), "unknown"},
		{math.Inf(1), "unknown"},
		{math.Inf(-1), "unknown"},
		{-1, "unknown"},
		{-0.2, "unknown"},
		{2e9, "unknown"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.in); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
