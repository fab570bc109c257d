package stats

import (
	"fmt"
	"math"
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
