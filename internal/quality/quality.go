// Package quality is the model-quality observatory for the serving
// stack: streaming accuracy and drift monitoring over the prequential
// estimate-then-observe pairs a labelled telemetry stream produces.
// The paper's whole claim rests on a quality number (the Table III/IV
// MAPE of the Equation-1 fit), so a deployed model must carry that
// number as a live signal, not a training-time artifact.
//
// The pieces compose bottom-up:
//
//   - Tracker: sliding-window residual statistics — windowed MAPE,
//     signed bias in watts, and lifetime absolute-error quantiles
//     (p50/p95/p99) via P²-style streaming estimators. Zero
//     steady-state allocations per Observe.
//   - Machine: the ok → warn → alert drift state machine with
//     hysteresis on windowed MAPE and |bias|.
//   - Exemplars: a bounded buffer of the worst-residual samples
//     (input counters, operating point, predicted vs observed watts,
//     model version) for post-hoc diagnosis.
//   - Monitor: one lock around all three — the per-model-version
//     aggregation point the serving layer feeds and /v1/status reads.
package quality

import (
	"math"
	"sync"
)

// Tracker computes sliding-window residual statistics over a stream
// of (predicted, observed) watt pairs. The window covers the most
// recent Window() usable observations; the P² quantile estimators are
// lifetime (they summarize the whole stream, the way a Prometheus
// histogram would, without storing it).
//
// Tracker is goroutine-safe. Observe performs no allocations after
// construction — the rings and marker arrays are fixed — so it can
// sit on the zero-alloc labelled-sample hot path.
type Tracker struct {
	mu     sync.Mutex
	window int
	// Rings of per-sample signed error (predicted − observed, watts)
	// and absolute percentage error; next is the slot the next sample
	// overwrites.
	signed []float64
	ape    []float64
	next   int
	n      int // samples currently in the window, <= window
	// Running window sums, updated incrementally on insert/evict.
	sumSigned, sumAPE float64
	// Lifetime accounting.
	total   uint64 // usable observations
	skipped uint64 // dropped: non-finite prediction or unusable label
	p50     p2Estimator
	p95     p2Estimator
	p99     p2Estimator
}

// NewTracker returns a tracker over a sliding window of the given
// number of observations (clamped to at least 1).
func NewTracker(window int) *Tracker {
	if window < 1 {
		window = 1
	}
	t := &Tracker{
		window: window,
		signed: make([]float64, window),
		ape:    make([]float64, window),
	}
	t.p50.init(0.50)
	t.p95.init(0.95)
	t.p99.init(0.99)
	return t
}

// Observe folds one (predicted, observed) pair into the window and
// the quantile estimators. Pairs with a non-finite prediction or an
// unusable label (NaN, ±Inf, or a non-positive power that would make
// the percentage error undefined) are counted as skipped and change
// no statistics; Observe reports whether the pair was used.
func (t *Tracker) Observe(predictedW, observedW float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if math.IsNaN(predictedW) || math.IsInf(predictedW, 0) ||
		math.IsNaN(observedW) || math.IsInf(observedW, 0) || observedW <= 0 {
		t.skipped++
		return false
	}
	err := predictedW - observedW
	absErr := math.Abs(err)
	ape := absErr / observedW * 100
	if t.n == t.window {
		// Evict the slot we are about to overwrite.
		old := t.signed[t.next]
		t.sumSigned -= old
		t.sumAPE -= t.ape[t.next]
	} else {
		t.n++
	}
	t.signed[t.next] = err
	t.ape[t.next] = ape
	t.next++
	if t.next == t.window {
		t.next = 0
	}
	t.sumSigned += err
	t.sumAPE += ape
	t.total++
	t.p50.observe(absErr)
	t.p95.observe(absErr)
	t.p99.observe(absErr)
	return true
}

// WindowSnapshot is a consistent point-in-time view of a Tracker.
type WindowSnapshot struct {
	// N is the number of observations currently in the window.
	N int
	// MAPEPct is the windowed mean absolute percentage error, in
	// percent (0 when the window is empty).
	MAPEPct float64
	// BiasW is the windowed mean signed error (predicted − observed)
	// in watts: negative means the model underestimates.
	BiasW float64
	// P50W, P95W, P99W are lifetime absolute-error quantile estimates
	// in watts (0 before the first observation).
	P50W, P95W, P99W float64
	// Total and Skipped are lifetime counts of used and dropped pairs.
	Total, Skipped uint64
}

// Snapshot returns the current window statistics under one lock
// acquisition. It does not allocate.
func (t *Tracker) Snapshot() WindowSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracker) snapshotLocked() WindowSnapshot {
	s := WindowSnapshot{N: t.n, Total: t.total, Skipped: t.skipped}
	if t.n > 0 {
		inv := 1 / float64(t.n)
		s.MAPEPct = t.sumAPE * inv
		s.BiasW = t.sumSigned * inv
	}
	s.P50W, _ = t.p50.value()
	s.P95W, _ = t.p95.value()
	s.P99W, _ = t.p99.value()
	return s
}
