package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is one of a handful of outliers and does
// not repeat from run to run.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank,
// and false when fewer than minTail samples lie beyond it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs with the
// exclusive method (the one Python's statistics.quantiles(n=4) uses, so
// the spreads printed here are the ones the contract's driver computes).
// Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// summary is the across-repetitions view of one metric that -runs N
// prints and judges.
type summary struct {
	Median, Min, Max float64
	// IQRShare is (q3 − q1) ÷ median and RangeShare (max − min) ÷
	// median: the spread the contract's driver computes and the stricter
	// one -runs gates on.
	IQRShare, RangeShare float64
}

func summarize(xs []float64) summary {
	s := summary{Median: median(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	if s.Median != 0 {
		q1, q3 := quartiles(xs)
		s.IQRShare = (q3 - q1) / math.Abs(s.Median)
		s.RangeShare = (s.Max - s.Min) / math.Abs(s.Median)
	}
	return s
}
