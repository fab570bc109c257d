package stats

import (
	"fmt"

	"pmcpower/internal/mat"
)

// RLS is a recursive least-squares fitter over a sliding window of
// observations: each Push folds the new row into a mat.RowQR
// factorization and, once the window is full, rotates the oldest row
// back out, so the coefficients always describe exactly the last
// `window` observations. Per-sample cost is O(k²) in the feature count
// and independent of the stream length; after construction the steady
// state allocates nothing (gated by AllocsPerRun in the tests) —
// the properties the serving path needs to refit per sample at
// telemetry rates.
//
// Equivalence contract: Coefficients matches a from-scratch batch
// least-squares fit of the retained window (for rows that lead with an
// intercept 1, FitR2 of the rest of each row) to rounding — see
// TestRLSWindowMatchesBatchRefit for the documented tolerance — and
// replaying the same stream through a fresh RLS is bit-identical. When a downdate breaks down numerically (rare;
// possible after very long slides) the fitter rebuilds the
// factorization from its retained window copy, still without
// allocating; Rebuilds counts those events.
//
// RLS is not safe for concurrent use; callers serialize (the serve
// layer pushes under its session lock).
type RLS struct {
	k      int
	window int
	qr     *mat.RowQR

	// ring retains the windowed rows (k features then the target) so
	// the oldest can be downdated — and so the factorization can be
	// rebuilt exactly when a downdate breaks down. Slot layout is
	// (k+1) floats per row; when the window is full, head is the
	// oldest row, which is also where the incoming row lands.
	ring []float64
	head int
	n    int

	rebuilds uint64
}

// NewRLS returns a fitter for k-feature rows over a sliding window of
// the given size. window must leave the fit overdetermined (> k).
func NewRLS(k, window int) (*RLS, error) {
	if k <= 0 {
		return nil, fmt.Errorf("stats: RLS needs at least one feature, got k=%d", k)
	}
	if window <= k {
		return nil, fmt.Errorf("stats: RLS window %d too small for %d features (need > k)", window, k)
	}
	return &RLS{
		k:      k,
		window: window,
		qr:     mat.NewRowQR(k),
		ring:   make([]float64, window*(k+1)),
	}, nil
}

// Rebuilds returns how many times a downdate breakdown forced a
// from-ring refactorization.
func (r *RLS) Rebuilds() uint64 { return r.rebuilds }

// Push folds one observation into the window, evicting the oldest row
// once the window is full. x must have exactly k entries; it is copied,
// not retained. Zero allocations in steady state.
func (r *RLS) Push(x []float64, y float64) error {
	if len(x) != r.k {
		return fmt.Errorf("stats: RLS row has %d features, want %d", len(x), r.k)
	}
	stride := r.k + 1
	if r.n == r.window {
		// The slot at head is the oldest row; rotate it out before the
		// new row overwrites it.
		old := r.ring[r.head*stride : r.head*stride+stride]
		if err := r.qr.DowndateRow(old[:r.k], old[r.k]); err != nil {
			r.rebuildWithoutOldest()
		} else {
			r.n--
		}
	}
	slot := r.ring[r.head*stride : r.head*stride+stride]
	copy(slot, x)
	slot[r.k] = y
	r.qr.AppendRow(x, y)
	r.head = (r.head + 1) % r.window
	r.n++
	return nil
}

// rebuildWithoutOldest refactorizes from the ring, skipping the
// oldest row (the one whose downdate just broke down). O(window·k²),
// allocation-free: it replays the retained rows through the existing
// factorization buffers.
func (r *RLS) rebuildWithoutOldest() {
	stride := r.k + 1
	r.qr.Reset()
	for i := 1; i < r.n; i++ {
		idx := (r.head + i) % r.window
		row := r.ring[idx*stride : idx*stride+stride]
		r.qr.AppendRow(row[:r.k], row[r.k])
	}
	r.n--
	r.rebuilds++
}

// Coefficients solves the windowed least-squares problem into dst
// (length k). Zero allocations. Returns mat.ErrSingular while the
// window is underdetermined or its rows are (numerically) collinear —
// callers keep serving the previous coefficients in that case.
func (r *RLS) Coefficients(dst []float64) error {
	if len(dst) != r.k {
		return fmt.Errorf("stats: RLS coefficient buffer has %d entries, want %d", len(dst), r.k)
	}
	return r.qr.SolveInto(dst)
}
