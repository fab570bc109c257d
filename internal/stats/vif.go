package stats

import (
	"context"
	"fmt"
	"math"

	"pmcpower/internal/mat"
	"pmcpower/internal/parallel"
)

// VIFColumns computes the variance inflation factor of every column
// of a column store: cols[j] is the j-th variable's observations.
//
// The VIF of column j is 1/(1−R²_j) where R²_j is the coefficient of
// determination of an auxiliary OLS regression (with intercept)
// predicting column j from all other columns. VIF(j)=1 means column j
// is orthogonal to the rest; values above ~10 conventionally indicate
// multicollinearity problems (Kutner 2004; Hair 2010), the threshold
// the paper applies.
//
// A column perfectly explained by the others yields +Inf. VIF needs
// at least two columns; for a single column the result is a
// one-element slice containing NaN (matching the "n/a" entry in the
// paper's Tables I and IV for the first selected counter).
//
// The k auxiliary fits are independent and fan out over parallelism
// workers (0 = GOMAXPROCS, 1 = serial); results are collected in
// column order, so the output is bit-identical at every level. Each
// auxiliary regression only needs its R², so the fits use FitR2.
func VIFColumns(cols [][]float64, parallelism int) ([]float64, error) {
	k := len(cols)
	if k == 0 {
		return nil, fmt.Errorf("stats: VIF of zero columns")
	}
	if k == 1 {
		return []float64{math.NaN()}, nil
	}
	n := len(cols[0])
	out, err := parallel.MapWorkers(context.Background(), k, parallelism,
		func(_ int) *mat.Matrix { return mat.New(n, k-1) },
		func(_ context.Context, aux *mat.Matrix, j int) (float64, error) {
			// Assemble the auxiliary design — every column but j — into
			// the worker's scratch matrix.
			jj := 0
			for c := 0; c < k; c++ {
				if c == j {
					continue
				}
				for i, v := range cols[c] {
					aux.Set(i, jj, v)
				}
				jj++
			}
			res, err := FitR2(aux, cols[j])
			if err != nil {
				return 0, fmt.Errorf("stats: VIF auxiliary regression for column %d: %w", j, err)
			}
			r2 := res.R2
			if r2 >= 1 {
				return math.Inf(1), nil
			}
			v := 1 / (1 - r2)
			// Auxiliary R² can round slightly negative for a column
			// orthogonal to the rest; clamp to the theoretical minimum
			// of 1.
			if v < 1 {
				v = 1
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeanVIF returns the mean variance inflation factor over the columns
// of x, the stability indicator used by the paper, with the auxiliary
// regressions fanned out as in VIFColumns. The NaN produced for a
// single-column input propagates; an Inf VIF yields +Inf.
func MeanVIF(x *mat.Matrix, parallelism int) (float64, error) {
	vs, err := VIFColumns(x.Columns(), parallelism)
	if err != nil {
		return 0, err
	}
	return Mean(vs), nil
}
