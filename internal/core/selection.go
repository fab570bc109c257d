package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/obs"
	"pmcpower/internal/parallel"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// SelectionStep records one iteration of Algorithm 1: the event that
// maximized R² given the previously selected events, together with the
// model quality and the mean VIF of the selected set after adding it.
type SelectionStep struct {
	Event pmu.EventID
	R2    float64
	AdjR2 float64
	// MeanVIF is the mean variance inflation factor across the
	// selected events' rate columns after this step; NaN for the first
	// step (a single column has no VIF — "n/a" in the paper's tables).
	MeanVIF float64
	// VIFs are the per-event VIFs of the selected set after this step,
	// aligned with the selection order.
	VIFs []float64
}

// SelectOptions configures Algorithm 1.
type SelectOptions struct {
	// Count is the number of events to select from the 54 presets (the
	// paper uses 6, and examines the consequences of a 7th).
	Count int
	// InitWithCycles seeds selectedEvents with the cycle counter, as
	// Walker et al. do on ARM. The paper drops this initialization
	// ("Preliminary tests have shown, that initializing the events
	// with the processor cycle counter neither improves nor worsens
	// the accuracy of the resulting model significantly"); the flag
	// exists for the ablation experiment.
	InitWithCycles bool
	// Parallelism bounds the workers evaluating the independent
	// candidate fits of each round (and the VIF auxiliary
	// regressions): 0 = GOMAXPROCS, 1 = serial. The selection result
	// is bit-identical at every level.
	Parallelism int
}

// SelectEvents runs Algorithm 1 over the dataset rows: greedy forward
// selection of PMC events by the R² of the Equation-1 model, with VIF
// bookkeeping after each addition. The returned steps are in selection
// order (the order of the paper's Tables I and IV).
func SelectEvents(rows []*acquisition.Row, opts SelectOptions) ([]SelectionStep, error) {
	return SelectEventsCtx(context.Background(), rows, opts)
}

// SelectEventsCtx is SelectEvents under a caller context: when ctx
// carries an obs.Tracer, the greedy search emits a "selection" span
// with one "selection.round" child per iteration (annotated with the
// winning event) and a "selection.vif" child per VIF computation.
// Span emission stays off the numeric path, so the selected events
// are bit-identical with or without a tracer.
//
// The per-candidate trial fits run on the fast-fit kernel: the shared
// design-matrix prefix (intercept + already-selected event features)
// is QR-factored once per round, each candidate appends its three
// remaining columns to a per-worker copy in O(n·k) (see mat.UpdQR),
// and only coefficients and R²/Adj.R² are computed — the covariance
// sandwich, leverages and t/p statistics that candidate scoring
// discards are skipped. The kernel's arithmetic is operation for
// operation the one FitOLS performs on the full design, so the
// selected sequence and the recorded R²/Adj.R² values are
// bit-identical to per-candidate full OLS fits
// (TestSelectFastMatchesExact pins them against that loop, kept as a
// test oracle).
func SelectEventsCtx(ctx context.Context, rows []*acquisition.Row, opts SelectOptions) ([]SelectionStep, error) {
	if opts.Count < 1 {
		return nil, fmt.Errorf("core: SelectEvents needs Count >= 1, got %d", opts.Count)
	}
	candidates := pmu.AllIDs()
	if opts.Count > len(candidates) {
		return nil, fmt.Errorf("core: cannot select %d events from %d candidates", opts.Count, len(candidates))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}

	tracer := obs.FromContext(ctx)
	ctx, selSpan := tracer.StartSpan(ctx, "selection",
		obs.Int("count", opts.Count), obs.Int("candidates", len(candidates)))
	defer selSpan.End()

	run := &selectionRun{
		rows:        rows,
		opts:        opts,
		candidates:  candidates,
		inSelected:  make(map[pmu.EventID]bool),
		selected:    make([]pmu.EventID, 0, opts.Count),
		parallelism: opts.Parallelism,
	}
	return run.selectFast(ctx)
}

// selectionRun carries the state of the greedy loop (shared with the
// exact-fit oracle in the tests): the selected set and the recorded
// steps.
type selectionRun struct {
	rows        []*acquisition.Row
	opts        SelectOptions
	candidates  []pmu.EventID
	selected    []pmu.EventID
	inSelected  map[pmu.EventID]bool
	steps       []SelectionStep
	parallelism int
}

// appendStep records a selection winner and its post-addition VIFs,
// computed over the selected events' rate columns.
func (run *selectionRun) appendStep(ctx context.Context, id pmu.EventID, r2, adjR2 float64) {
	run.selected = append(run.selected, id)
	run.inSelected[id] = true
	step := SelectionStep{Event: id, R2: r2, AdjR2: adjR2, MeanVIF: math.NaN()}
	if len(run.selected) >= 2 {
		_, vifSpan := obs.FromContext(ctx).StartSpan(ctx, "selection.vif", obs.Int("events", len(run.selected)))
		vifs, err := stats.VIFColumns(RateMatrix(run.rows, run.selected).Columns(), run.parallelism)
		vifSpan.End()
		if err != nil {
			// A perfectly collinear addition: report +Inf rather
			// than failing — the paper's workflow needs to *see*
			// the blow-up.
			vifs = make([]float64, len(run.selected))
			for i := range vifs {
				vifs[i] = math.Inf(1)
			}
		}
		step.VIFs = vifs
		step.MeanVIF = stats.Mean(vifs)
	}
	run.steps = append(run.steps, step)
}

// seedWithCycles performs the optional cycle-counter initialization
// (one full fit — not a hot path).
func (run *selectionRun) seedWithCycles(ctx context.Context) error {
	cyc := pmu.MustByName("TOT_CYC").ID
	m, err := Train(run.rows, []pmu.EventID{cyc}, TrainOptions{})
	if err != nil {
		return err
	}
	run.appendStep(ctx, cyc, m.R2(), m.AdjR2())
	return nil
}

// candFit is one candidate's trial-fit score.
type candFit struct {
	r2, adjR2 float64
	ok        bool
}

// reduceRound picks the round winner in candidate order with a strict
// > comparison, reproducing the serial loop's tie-breaking exactly.
func (run *selectionRun) reduceRound(fits []candFit) (pmu.EventID, float64, float64, error) {
	bestR2 := math.Inf(-1)
	bestAdj := 0.0
	var bestEvent pmu.EventID = -1
	for ci, f := range fits {
		if !f.ok {
			continue
		}
		if f.r2 > bestR2 {
			bestR2 = f.r2
			bestAdj = f.adjR2
			bestEvent = run.candidates[ci]
		}
	}
	if bestEvent < 0 {
		return -1, 0, 0, fmt.Errorf("core: no fittable candidate left after %d selections", len(run.selected))
	}
	return bestEvent, bestR2, bestAdj, nil
}

// --- fast path ---------------------------------------------------------

// candScratch is the per-worker state of the fast candidate loop: a
// private copy of the round's prefix factorization plus solve and
// accumulation buffers. All fields are scratch — every value a task
// reads is written by that task (or copied from the immutable round
// prefix before the fan-out), preserving the determinism contract.
type candScratch struct {
	uq     *mat.UpdQR
	coeffs []float64
	ybuf   []float64
	cols   [][]float64
}

// roundKernel evaluates candidates for one greedy round against the
// shared prefix factorization.
type roundKernel struct {
	n, pcols, kTot int
	y              []float64
	sst            float64
	prefix         *mat.UpdQR
	baseCols       [][]float64 // column views of the prefix design
	v2f, volt      []float64
}

func (rk *roundKernel) newScratch() *candScratch {
	s := &candScratch{
		uq:     mat.NewUpdQR(rk.n, rk.prefix.Cap()),
		coeffs: make([]float64, rk.kTot),
		ybuf:   make([]float64, rk.n),
		cols:   make([][]float64, rk.kTot),
	}
	s.uq.CopyFrom(rk.prefix)
	copy(s.cols[:rk.pcols], rk.baseCols)
	s.cols[rk.kTot-2] = rk.v2f
	s.cols[rk.kTot-1] = rk.volt
	return s
}

// eval scores one candidate: append its three trailing columns to the
// prefix, solve, and compute R²/Adj.R² with the exact arithmetic of
// fitOLSCore (same accumulation orders), so the score is bit-identical
// to a full FitOLS of the candidate design. ok=false mirrors the
// conditions under which FitOLS returns ErrDegenerate (n <= k or a
// rank-deficient design at the same tolerance) — the exact loop
// skipped those candidates, and so does this one. The whole evaluation
// is allocation-free (gated by testing.AllocsPerRun).
func (rk *roundKernel) eval(s *candScratch, evCand []float64) (r2, adjR2 float64, ok bool) {
	n, kTot := rk.n, rk.kTot
	if n <= kTot {
		return 0, 0, false
	}
	s.uq.Truncate(rk.pcols)
	s.uq.AppendCol(evCand)
	s.uq.AppendCol(rk.v2f)
	s.uq.AppendCol(rk.volt)
	if err := s.uq.SolveInto(s.coeffs, s.ybuf, rk.y); err != nil {
		return 0, 0, false
	}
	s.cols[rk.pcols] = evCand

	// Fitted values and the residual sum of squares, accumulated in
	// the same element order as design.MulVec + the residual loop in
	// fitOLSCore.
	var ssr float64
	for i := 0; i < n; i++ {
		var f float64
		for j := 0; j < kTot; j++ {
			f += s.cols[j][i] * s.coeffs[j]
		}
		r := rk.y[i] - f
		ssr += r * r
	}
	if rk.sst > 0 {
		r2 = 1 - ssr/rk.sst
		dfTotal := float64(n - 1)
		adjR2 = 1 - (1-r2)*dfTotal/float64(n-kTot)
	}
	return r2, adjR2, true
}

func (run *selectionRun) selectFast(ctx context.Context) ([]SelectionStep, error) {
	opts := run.opts
	n := len(run.rows)

	// Every candidate design is a choice of columns of one design over
	// all candidates: [E·V²f of each candidate…, V²f, V]. Build it once
	// and read its columns; the fan-out never writes them.
	design, y, err := DesignMatrix(run.rows, run.candidates)
	if err != nil {
		return nil, err
	}
	cols := design.Columns()
	nc := len(run.candidates)
	evAll, v2f, volt := cols[:nc], cols[nc], cols[nc+1]
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}

	// The centered total sum of squares is a property of y alone; every
	// candidate fit of the exact loop recomputed the identical value.
	ybar := stats.Mean(y)
	var sst float64
	for _, v := range y {
		d := v - ybar
		sst += d * d
	}

	if opts.InitWithCycles {
		if err := run.seedWithCycles(ctx); err != nil {
			return nil, err
		}
	}

	maxCols := opts.Count + 3 // intercept + Count event features + V²f + V
	prefix := mat.NewUpdQR(n, maxCols)
	baseCols := make([][]float64, 0, maxCols)

	for len(run.selected) < opts.Count {
		rctx, roundSpan := obs.FromContext(ctx).StartSpan(ctx, "selection.round", obs.Int("round", len(run.selected)+1))

		pcols := len(run.selected) + 1
		kTot := pcols + 3
		if n <= kTot {
			// Every candidate design would be underdetermined — the
			// condition under which the exact loop found no fittable
			// candidate.
			roundSpan.End()
			return nil, fmt.Errorf("core: no fittable candidate left after %d selections", len(run.selected))
		}

		// Factor the shared prefix [1, E·V²f of selected…] once; every
		// candidate design this round extends it by three columns.
		prefix.Reset()
		prefix.AppendCol(ones)
		baseCols = append(baseCols[:0], ones)
		for _, id := range run.selected {
			col := evAll[slices.Index(run.candidates, id)]
			prefix.AppendCol(col)
			baseCols = append(baseCols, col)
		}

		rk := &roundKernel{
			n: n, pcols: pcols, kTot: kTot,
			y: y, sst: sst,
			prefix: prefix, baseCols: baseCols,
			v2f: v2f, volt: volt,
		}
		fits, err := parallel.MapWorkers(rctx, len(run.candidates), run.parallelism,
			func(int) *candScratch { return rk.newScratch() },
			func(_ context.Context, s *candScratch, ci int) (candFit, error) {
				if run.inSelected[run.candidates[ci]] {
					return candFit{}, nil
				}
				r2, adj, ok := rk.eval(s, evAll[ci])
				return candFit{r2: r2, adjR2: adj, ok: ok}, nil
			})
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		bestEvent, bestR2, bestAdj, err := run.reduceRound(fits)
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		run.appendStep(ctx, bestEvent, bestR2, bestAdj)
		roundSpan.SetAttr(obs.String("selected", pmu.Lookup(bestEvent).Short), obs.Float("r2", bestR2))
		roundSpan.End()
	}
	return run.steps, nil
}

// Events extracts the selected event IDs from selection steps, in
// order.
func Events(steps []SelectionStep) []pmu.EventID {
	out := make([]pmu.EventID, len(steps))
	for i, s := range steps {
		out[i] = s.Event
	}
	return out
}
