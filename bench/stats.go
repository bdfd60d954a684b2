package main

import (
	"math"
	"sort"
)

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of sorted values by the rule
// Python's statistics.quantiles uses by default ("exclusive": position
// q(n+1) counted from one, interpolated, clamped to the ends), so that
// quartiles here are the quartiles the acceptance check computes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", best first, with the share of samples beyond each
// in thousandths (whole numbers, so the count needs no rounding).
var tailPercentiles = []struct {
	p             float64
	beyondPerMill int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// highestPercentile picks the highest candidate percentile that still
// has at least minBeyond samples above it among n, so a reported tail
// is never one or two outliers. It returns 50 when even p75 has too
// few.
func highestPercentile(n, minBeyond int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyondPerMill >= minBeyond*1000 {
			return c.p
		}
	}
	return 50
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
}
