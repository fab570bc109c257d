package core

import (
	"context"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/rng"
	"pmcpower/internal/stats"
)

// These tests pin the central claim of the fast-fit selection kernel:
// it is an optimization, not an approximation. Every comparison is
// bit-level (== / sameFloat), not tolerance-based.

// selectWithFullFits is the oracle the fast selection is pinned against:
// Algorithm 1 with every candidate of every round scored by a full OLS
// fit via Train, its design rebuilt from the rows — the pre-kernel
// arithmetic, run serially. It shares selectionRun's bookkeeping (step
// recording, VIFs, cycle seeding, tie-breaking) with SelectEvents.
func selectWithFullFits(rows []*acquisition.Row, opts SelectOptions) ([]SelectionStep, error) {
	ctx := context.Background()
	run := &selectionRun{
		rows:        rows,
		opts:        opts,
		candidates:  pmu.AllIDs(),
		inSelected:  make(map[pmu.EventID]bool),
		parallelism: opts.Parallelism,
	}
	if opts.InitWithCycles {
		if err := run.seedWithCycles(ctx); err != nil {
			return nil, err
		}
	}
	for len(run.selected) < opts.Count {
		fits := make([]candFit, len(run.candidates))
		for ci, cand := range run.candidates {
			if run.inSelected[cand] {
				continue
			}
			trial := append(append([]pmu.EventID(nil), run.selected...), cand)
			// A candidate whose fit fails (a rank-deficient design) is
			// skipped, as a statsmodels workflow discards a failed fit.
			if m, err := Train(run.rows, trial, TrainOptions{}); err == nil {
				fits[ci] = candFit{r2: m.R2(), adjR2: m.AdjR2(), ok: true}
			}
		}
		best, r2, adjR2, err := run.reduceRound(fits)
		if err != nil {
			return nil, err
		}
		run.appendStep(ctx, best, r2, adjR2)
	}
	return run.steps, nil
}

func sameSteps(t *testing.T, name string, a, b []SelectionStep) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: step counts differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		s, p := a[i], b[i]
		if s.Event != p.Event {
			t.Fatalf("%s step %d: fast selected %s, exact selected %s",
				name, i, pmu.Lookup(s.Event).Short, pmu.Lookup(p.Event).Short)
		}
		if !sameFloat(s.R2, p.R2) || !sameFloat(s.AdjR2, p.AdjR2) || !sameFloat(s.MeanVIF, p.MeanVIF) {
			t.Fatalf("%s step %d: metrics differ: %+v vs %+v", name, i, s, p)
		}
		if len(s.VIFs) != len(p.VIFs) {
			t.Fatalf("%s step %d: VIF counts differ", name, i)
		}
		for j := range s.VIFs {
			if !sameFloat(s.VIFs[j], p.VIFs[j]) {
				t.Fatalf("%s step %d: VIF[%d] differs: %v vs %v", name, i, j, s.VIFs[j], p.VIFs[j])
			}
		}
	}
}

func TestSelectFastMatchesExact(t *testing.T) {
	sel, _ := fixtures(t)
	cases := []struct {
		name string
		opts SelectOptions
	}{
		{"count6", SelectOptions{Count: 6}},
		{"count8", SelectOptions{Count: 8}},
		{"cycleInit", SelectOptions{Count: 3, InitWithCycles: true}},
		{"parallel", SelectOptions{Count: 6, Parallelism: 4}},
	}
	for _, tc := range cases {
		fast, err := SelectEvents(sel.Rows, tc.opts)
		if err != nil {
			t.Fatalf("%s fast: %v", tc.name, err)
		}
		exact, err := selectWithFullFits(sel.Rows, tc.opts)
		if err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		sameSteps(t, tc.name, fast, exact)
	}
}

func TestSelectFastDegenerateMatchesExact(t *testing.T) {
	// With too few rows for the design, both paths must fail with the
	// same "no fittable candidate" shape rather than panicking.
	sel, _ := fixtures(t)
	rows := sel.Rows[:4] // 4 rows cannot fit intercept+event+V²f+V (k=4)
	if _, err := SelectEvents(rows, SelectOptions{Count: 1}); err == nil {
		t.Fatal("fast path must reject an underdetermined dataset")
	}
	if _, err := selectWithFullFits(rows, SelectOptions{Count: 1}); err == nil {
		t.Fatal("exact oracle must reject an underdetermined dataset")
	}
}

func TestRoundKernelEvalAllocFree(t *testing.T) {
	// The per-candidate evaluation — truncate, three appends, solve,
	// R² accumulation — must not allocate: it runs tens of thousands of
	// times per selection.
	sel, _ := fixtures(t)
	all := pmu.AllIDs()
	design, y, err := DesignMatrix(sel.Rows, all)
	if err != nil {
		t.Fatal(err)
	}
	cols := design.Columns()
	selected := cols[:2]
	n := len(y)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	ybar := stats.Mean(y)
	var sst float64
	for _, v := range y {
		d := v - ybar
		sst += d * d
	}

	pcols := len(selected) + 1
	kTot := pcols + 3
	maxCols := kTot
	prefix := mat.NewUpdQR(n, maxCols)
	prefix.AppendCol(ones)
	baseCols := [][]float64{ones}
	for _, col := range selected {
		prefix.AppendCol(col)
		baseCols = append(baseCols, col)
	}
	rk := &roundKernel{
		n: n, pcols: pcols, kTot: kTot,
		y: y, sst: sst,
		prefix: prefix, baseCols: baseCols,
		v2f: cols[len(all)], volt: cols[len(all)+1],
	}
	s := rk.newScratch()
	cand := cols[10]
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := rk.eval(s, cand); !ok {
			t.Fatal("eval rejected a fittable candidate")
		}
	})
	if allocs != 0 {
		t.Fatalf("roundKernel.eval allocated %v times per run, want 0", allocs)
	}
}

func TestCrossValidationFoldsMatchFullFits(t *testing.T) {
	// Each fold's lite fit (rows of the shared design + FitR2) must agree
	// bitwise with a from-scratch Train (full FitOLS) over the same
	// training rows — the fold is scored by an identical model.
	_, full := fixtures(t)
	events := canonicalEvents()
	const k, seed = 10, 7

	cv, err := CrossValidateP(full.Rows, events, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	folds, err := stats.KFold(len(full.Rows), k, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != len(folds) {
		t.Fatalf("fold count %d, want %d", len(cv.Folds), len(folds))
	}
	for fi, fold := range folds {
		m, err := Train(subset(full.Rows, fold.Train), events, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloat(cv.Folds[fi].TrainR2, m.R2()) || !sameFloat(cv.Folds[fi].TrainAdjR2, m.AdjR2()) {
			t.Fatalf("fold %d: lite fit (R²=%v Adj=%v) differs from full fit (R²=%v Adj=%v)",
				fi, cv.Folds[fi].TrainR2, cv.Folds[fi].TrainAdjR2, m.R2(), m.AdjR2())
		}
	}
	// Out-of-fold predictions must likewise match the full-fit models.
	pi := 0
	for fi, fold := range folds {
		m, err := Train(subset(full.Rows, fold.Train), events, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range fold.Test {
			p := cv.Predictions[pi]
			pi++
			if p.Row != full.Rows[ri] {
				t.Fatalf("fold %d: prediction order diverged", fi)
			}
			if p.Predicted != m.Predict(full.Rows[ri]) {
				t.Fatalf("fold %d row %d: lite prediction %v, full %v",
					fi, ri, p.Predicted, m.Predict(full.Rows[ri]))
			}
		}
	}
}
