package core

import (
	"errors"
	"fmt"
	"math"

	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// ErrBadPower marks a measured-power reference that is NaN, infinite,
// or non-positive — the label side of a refit observation is validated
// like the counter side, before any state mutates.
var ErrBadPower = errors.New("invalid power reference")

// validatePower rejects NaN, infinite, and non-positive power labels.
func validatePower(powerW float64) error {
	if math.IsNaN(powerW) || math.IsInf(powerW, 0) || powerW <= 0 {
		return fmt.Errorf("core: %w: %v W", ErrBadPower, powerW)
	}
	return nil
}

// Refitter adapts a trained Equation-1 model to a live stream: each
// labelled sample (counter rates plus a measured power reference, e.g.
// RAPL) is folded into a sliding-window recursive least-squares fit of
// the same design the offline trainer uses, and the refreshed
// coefficients overwrite an adapted copy of the model in place. The
// base model is never mutated; the adapted copy is allocated once at
// construction and its coefficient slices are reused across refits, so
// the steady-state per-sample cost is stats.RLS's O(k²) with zero
// allocations.
//
// Version numbers the coefficient generations: 0 is the frozen offline
// fit the Refitter started from, and every successful refresh
// increments it. Serving layers stamp the version on each estimate so
// clients can tell frozen output from adapting output.
//
// Refitter is not safe for concurrent use; StreamSession drives it
// under its session lock.
type Refitter struct {
	adapted *Model
	rls     *stats.RLS
	version uint64
	// xbuf is the Equation-1 design row [1, E_n·V²f …, V²f, V] reused
	// across observations; coefbuf receives the RLS solve.
	xbuf    []float64
	coefbuf []float64
}

// NewRefitter builds a refitter over base with the given sliding
// window (in samples). The design has k = len(base.Events)+3 columns
// (intercept, k events, V²f, V), and the window must keep the fit
// overdetermined: window > k+3.
func NewRefitter(base *Model, window int) (*Refitter, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	cols := len(base.Events) + 3
	rls, err := stats.NewRLS(cols, window)
	if err != nil {
		return nil, fmt.Errorf("core: refit window: %w", err)
	}
	// The adapted model starts as a coefficient-level copy of the base:
	// until the window is primed, predictions are exactly the frozen
	// fit's. Fit (the offline inference apparatus) stays attached for
	// reporting; it describes version 0.
	adapted := &Model{
		Events: append([]pmu.EventID(nil), base.Events...),
		Alpha:  append([]float64(nil), base.Alpha...),
		Beta:   base.Beta,
		Gamma:  base.Gamma,
		Delta:  base.Delta,
		Fit:    base.Fit,
	}
	return &Refitter{
		adapted: adapted,
		rls:     rls,
		xbuf:    make([]float64, cols),
		coefbuf: make([]float64, cols),
	}, nil
}

// Model returns the adapted model. The pointer is stable for the
// refitter's lifetime — estimators hold it and see refreshed
// coefficients in place.
func (rf *Refitter) Model() *Model { return rf.adapted }

// Version returns the coefficient generation: 0 until the first
// refresh, then incrementing per refresh.
func (rf *Refitter) Version() uint64 { return rf.version }

// Rebuilds reports how many downdate breakdowns forced a from-window
// refactorization (a numerical event counter, surfaced in metrics).
func (rf *Refitter) Rebuilds() uint64 { return rf.rls.Rebuilds() }

// Observe folds one labelled sample into the window and refreshes the
// adapted coefficients when the windowed fit is solvable. The power
// reference is validated first (ErrBadPower) so a rejected observation
// leaves all state untouched; the counter side must already have
// passed the estimator's validation. A window that is momentarily
// underdetermined or collinear is not an error — the previous
// coefficients simply keep serving.
func (rf *Refitter) Observe(s CounterSample, powerW float64) error {
	if err := validatePower(powerW); err != nil {
		return err
	}
	m := rf.adapted
	k := len(m.Events)
	fGHz := float64(s.FreqMHz) / 1000
	fHz := float64(s.FreqMHz) * 1e6
	v2f := s.VoltageV * s.VoltageV * fGHz
	// Same column layout and arithmetic as DesignMatrix + prependOnes:
	// intercept, E_n·V²f per event, V²f, V — so a full window refit
	// here matches Train on the same rows.
	rf.xbuf[0] = 1
	for j, id := range m.Events {
		rf.xbuf[1+j] = s.Rates[id] / fHz * v2f
	}
	rf.xbuf[1+k] = v2f
	rf.xbuf[2+k] = s.VoltageV
	if err := rf.rls.Push(rf.xbuf, powerW); err != nil {
		return err
	}
	if err := rf.rls.Coefficients(rf.coefbuf); err != nil {
		return nil // underdetermined/collinear window: keep serving the old fit
	}
	// modelFromCoeffs' mapping, applied in place.
	m.Delta = rf.coefbuf[0]
	copy(m.Alpha, rf.coefbuf[1:1+k])
	m.Beta = rf.coefbuf[1+k]
	m.Gamma = rf.coefbuf[2+k]
	rf.version++
	return nil
}
