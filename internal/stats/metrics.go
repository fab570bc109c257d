package stats

import (
	"fmt"
	"math"
)

// apeEps is the |actual| threshold below which an observation is
// excluded from percentage-error metrics to avoid division blow-ups.
const apeEps = 1e-9

// APEStats carries the absolute-percentage-error metrics of a
// prediction set together with the observation accounting that MAPE
// and MaxAPE alone cannot express: how many observations actually
// entered the mean and how many were skipped for near-zero actuals.
// Callers producing reports should surface Skipped when it is
// non-zero — a MAPE over 3 of 300 observations is not the paper's
// MAPE.
type APEStats struct {
	// MAPE and MaxAPE are the mean and largest absolute percentage
	// errors over the used observations, in percent.
	MAPE   float64
	MaxAPE float64
	// Used and Skipped partition the input: Used observations entered
	// the metrics, Skipped had |actual| below the near-zero threshold.
	Used    int
	Skipped int
}

// APEDetail computes MAPE and MaxAPE with explicit skip accounting.
// Observations with |actual| < 1e-9 are skipped; if every observation
// is skipped an error is returned instead of a silent NaN.
func APEDetail(actual, predicted []float64) (APEStats, error) {
	checkPair("APEDetail", actual, predicted)
	var st APEStats
	var sum float64
	for i := range actual {
		if math.Abs(actual[i]) < apeEps {
			st.Skipped++
			continue
		}
		ape := 100 * math.Abs((actual[i]-predicted[i])/actual[i])
		sum += ape
		if st.Used == 0 || ape > st.MaxAPE {
			st.MaxAPE = ape
		}
		st.Used++
	}
	if st.Used == 0 {
		return APEStats{MAPE: math.NaN(), MaxAPE: math.NaN(), Skipped: st.Skipped},
			fmt.Errorf("stats: all %d observations have near-zero actuals; percentage error undefined", st.Skipped)
	}
	st.MAPE = sum / float64(st.Used)
	return st, nil
}

// MAPE returns the mean absolute percentage error of predictions
// against actual values, in percent — the single-number accuracy
// metric used throughout the paper.
//
// Observations with |actual| below eps (1e-9) are skipped to avoid
// division blow-ups; if all observations are skipped the result is
// NaN. Use APEDetail when the skip count matters (it always does in
// reports).
func MAPE(actual, predicted []float64) float64 {
	st, _ := APEDetail(actual, predicted)
	return st.MAPE
}

func checkPair(name string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: %s length mismatch %d vs %d", name, len(a), len(b)))
	}
	if len(a) == 0 {
		panic(fmt.Sprintf("stats: %s of empty input", name))
	}
}
