package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values without modifying them.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them, so spreads reported here match the ones a driver
// script computes from the same values. Fewer than two values give
// Q1 = Q3 = the value.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
