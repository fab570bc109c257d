package core

import (
	"fmt"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
)

// refitter is a refitting StreamSession's sliding window: it adapts a
// trained Equation-1 model to a live stream. Each labelled sample
// (counter rates plus a measured power reference, e.g. RAPL) becomes
// one row of the offline trainer's design, and the rows of the last
// `size` samples stay least-squares factorized in a mat.RowQR: once
// the window is full the oldest row is rotated out before the new one
// is rotated in. Every solvable window overwrites the adapted model's
// coefficients in place. Per-sample cost is O(k²) in the k design
// columns, independent of the stream length, and allocation-free after
// construction.
//
// Equivalence contract: the adapted coefficients match Train on the
// rows left in the window to rounding (Givens against Householder
// order; TestRefitterMatchesBatchTrainOnWindow, also after a rebuild),
// and the same stream through a fresh session refreshes them bit for
// bit (TestRefitterRejectsBadPower, and exchange 49 of
// internal/serve/testdata/fastpath_wire.golden pins the served bytes).
//
// version numbers the coefficient generations: 0 is the frozen offline
// fit, and every refresh increments it. The session stamps it on each
// estimate. The session lock serializes every call.
type refitter struct {
	// model is the adapted copy of the base model the session serves.
	model *Model
	qr    *mat.RowQR
	// ring holds the window's rows, each the k design columns
	// [1, E_n·V²f …, V²f, V] then the label. When the window is full,
	// head is the oldest row, which is also where the next row lands.
	ring []float64
	head int
	n    int
	size int
	// coef receives the window's solve.
	coef     []float64
	version  uint64
	rebuilds uint64
}

// newRefitter builds a window of size samples over base. The design
// has len(base.Events)+3 columns, and the window must keep the fit
// overdetermined.
func newRefitter(base *Model, size int) (*refitter, error) {
	cols := len(base.Events) + 3
	if size <= cols {
		return nil, fmt.Errorf("core: refit window %d must exceed the %d design columns", size, cols)
	}
	// Until the window first solves, the adapted model serves exactly
	// the frozen fit's coefficients. Fit, the offline inference
	// apparatus, stays attached for reporting and describes version 0.
	return &refitter{
		model: &Model{
			Events: append([]pmu.EventID(nil), base.Events...),
			Alpha:  append([]float64(nil), base.Alpha...),
			Beta:   base.Beta,
			Gamma:  base.Gamma,
			Delta:  base.Delta,
			Fit:    base.Fit,
		},
		qr:   mat.NewRowQR(cols),
		ring: make([]float64, size*(cols+1)),
		size: size,
		coef: make([]float64, cols),
	}, nil
}

// observe folds one labelled sample into the window and refreshes the
// adapted coefficients when the window solves. The caller has checked
// the sample and the label. A window that is underdetermined or
// collinear keeps the previous coefficients serving.
func (rf *refitter) observe(s CounterSample, powerW float64) {
	m := rf.model
	k := len(m.Events)
	cols := k + 3
	if rf.n == rf.size {
		old := rf.ring[rf.head*(cols+1):][:cols+1]
		if rf.qr.DowndateRow(old[:cols], old[cols]) != nil {
			rf.rebuildWithoutOldest()
		} else {
			rf.n--
		}
	}
	// The row takes the oldest row's slot: the intercept, then the
	// design row Train fits for the same sample.
	row := rf.ring[rf.head*(cols+1):][:cols+1]
	row[0] = 1
	designRow(row[1:cols], &acquisition.Row{FreqMHz: s.FreqMHz, VoltageV: s.VoltageV, Rates: s.Rates}, m.Events)
	row[cols] = powerW
	rf.qr.AppendRow(row[:cols], powerW)
	rf.head = (rf.head + 1) % rf.size
	rf.n++
	if rf.qr.SolveInto(rf.coef) != nil {
		return
	}
	// modelFromCoeffs' mapping, applied in place.
	m.Delta = rf.coef[0]
	copy(m.Alpha, rf.coef[1:1+k])
	m.Beta = rf.coef[1+k]
	m.Gamma = rf.coef[2+k]
	rf.version++
}

// rebuildWithoutOldest refactorizes from the ring, skipping the oldest
// row, whose downdate just broke down (mat.ErrDowndate). O(size·k²),
// allocation-free: the retained rows replay through the existing
// factorization buffers.
func (rf *refitter) rebuildWithoutOldest() {
	stride := len(rf.coef) + 1
	rf.qr.Reset()
	for i := 1; i < rf.n; i++ {
		row := rf.ring[(rf.head+i)%rf.size*stride:][:stride]
		rf.qr.AppendRow(row[:stride-1], row[stride-1])
	}
	rf.n--
	rf.rebuilds++
}
