package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient between x and y
// (the paper's Equation 2). The result is in [−1, +1]; it is NaN when
// either input has zero variance. It panics on length mismatch or
// fewer than two observations.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		panic("stats: Pearson needs at least 2 observations")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	den := math.Sqrt(sxx * syy)
	if den == 0 {
		return math.NaN()
	}
	return sxy / den
}

// Spearman returns the Spearman rank correlation coefficient: the
// Pearson correlation of the rank-transformed inputs, with ties
// assigned their average rank.
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

// ranks converts values to average ranks (1-based).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// CorrelationMatrix returns the k×k Pearson correlation matrix of the
// given columns (each a sample of equal length).
func CorrelationMatrix(cols [][]float64) [][]float64 {
	k := len(cols)
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		out[i][i] = 1
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			c := Pearson(cols[i], cols[j])
			out[i][j] = c
			out[j][i] = c
		}
	}
	return out
}
