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

	total    uint64
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

// Features returns the feature count k.
func (r *RLS) Features() int { return r.k }

// Window returns the configured window size.
func (r *RLS) Window() int { return r.window }

// N returns the number of rows currently in the window.
func (r *RLS) N() int { return r.n }

// Total returns the number of rows ever pushed.
func (r *RLS) Total() uint64 { return r.total }

// Rebuilds returns how many times a downdate breakdown forced a
// from-ring refactorization.
func (r *RLS) Rebuilds() uint64 { return r.rebuilds }

// Ready reports whether enough rows have arrived for the fit to be
// overdetermined. Coefficients can still fail on a Ready fitter if the
// window's rows are collinear.
func (r *RLS) Ready() bool { return r.n > r.k }

// RSS returns the residual sum of squares over the current window.
func (r *RLS) RSS() float64 { return r.qr.RSS() }

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
	r.total++
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

// WindowRows copies the retained window, oldest first, into freshly
// allocated row/target slices — the batch-refit view of the fitter's
// state, used by the equivalence tests and diagnostics. Not part of
// the zero-alloc path.
func (r *RLS) WindowRows() (rows [][]float64, ys []float64) {
	stride := r.k + 1
	rows = make([][]float64, 0, r.n)
	ys = make([]float64, 0, r.n)
	start := 0
	if r.n == r.window {
		start = r.head
	}
	for i := 0; i < r.n; i++ {
		idx := (start + i) % r.window
		row := r.ring[idx*stride : idx*stride+stride]
		rows = append(rows, append([]float64(nil), row[:r.k]...))
		ys = append(ys, row[r.k])
	}
	return rows, ys
}
