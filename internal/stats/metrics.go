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

// MaxAPE returns the largest absolute percentage error, in percent.
// Near-zero actuals are skipped as in MAPE; the all-skipped case is
// NaN.
func MaxAPE(actual, predicted []float64) float64 {
	st, _ := APEDetail(actual, predicted)
	return st.MaxAPE
}

// RMSE returns the root mean square error.
func RMSE(actual, predicted []float64) float64 {
	checkPair("RMSE", actual, predicted)
	var ss float64
	for i := range actual {
		d := actual[i] - predicted[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(actual)))
}

// MAE returns the mean absolute error.
func MAE(actual, predicted []float64) float64 {
	checkPair("MAE", actual, predicted)
	var s float64
	for i := range actual {
		s += math.Abs(actual[i] - predicted[i])
	}
	return s / float64(len(actual))
}

// MeanBias returns mean(predicted − actual); positive values indicate
// systematic overestimation (the paper discusses per-workload bias in
// Figure 5a).
func MeanBias(actual, predicted []float64) float64 {
	checkPair("MeanBias", actual, predicted)
	var s float64
	for i := range actual {
		s += predicted[i] - actual[i]
	}
	return s / float64(len(actual))
}

// R2Score returns the out-of-sample coefficient of determination
// 1 − SSR/SST with SST centered on the actual mean. Unlike the in-fit
// R² of an OLSResult this can be negative for predictions worse than
// the mean.
func R2Score(actual, predicted []float64) float64 {
	checkPair("R2Score", actual, predicted)
	ybar := Mean(actual)
	var ssr, sst float64
	for i := range actual {
		d := actual[i] - predicted[i]
		ssr += d * d
		t := actual[i] - ybar
		sst += t * t
	}
	if sst == 0 {
		return math.NaN()
	}
	return 1 - ssr/sst
}

func checkPair(name string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: %s length mismatch %d vs %d", name, len(a), len(b)))
	}
	if len(a) == 0 {
		panic(fmt.Sprintf("stats: %s of empty input", name))
	}
}
