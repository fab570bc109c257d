package experiments

import (
	"pmcpower/internal/acquisition"
	"pmcpower/internal/baselines"
	"pmcpower/internal/core"
	"pmcpower/internal/rng"
	"pmcpower/internal/stats"
)

// --- E11: VIF explosion when extending the selection ------------------

// VIFExtension summarizes what happens when Algorithm 1 is allowed to
// select more counters than the canonical six (paper §IV-A: the 7th
// counter, CA_SNP, raises R² to 0.989 but the mean VIF to 26.42).
type VIFExtension struct {
	// Rows holds the full selection path.
	Rows []SelectionRow
	// ExplodeAt is the 1-based index of the first counter whose
	// addition pushes the mean VIF above Threshold; 0 if none does.
	ExplodeAt int
	Threshold float64
}

// ExtendedSelection runs Algorithm 1 beyond the canonical six counters
// and reports where multicollinearity blows up.
func (c *Context) ExtendedSelection(count int) (*VIFExtension, error) {
	steps, err := core.SelectEvents(c.selectionDS.Rows, core.SelectOptions{Count: count, Parallelism: c.cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	const threshold = 10 // the conventional VIF problem threshold [19,20]
	out := &VIFExtension{Rows: rowsFromSteps(steps), Threshold: threshold}
	for i, r := range out.Rows {
		if r.MeanVIF > threshold {
			out.ExplodeAt = i + 1
			break
		}
	}
	return out, nil
}

// --- E12: ablations of the paper's design choices ----------------------

// AblationResult compares a design choice against the paper's default.
type AblationResult struct {
	Name    string
	Default float64
	Variant float64
	// Unit describes what the numbers are (e.g. "mean VIF", "MAPE %").
	Unit string
	Note string
}

// AblationRateNormalization quantifies §III-C's rate normalization:
// mean VIF of the selected counters when expressed per cpu-cycle (the
// paper's choice) versus per second (the rejected alternative). The
// comparison must run on the multi-frequency dataset — at a single
// frequency the two normalizations differ only by a constant per
// column and VIF is scale-invariant; across DVFS states the absolute
// rates inherit a common frequency-driven component that inflates
// their mutual correlation.
func (c *Context) AblationRateNormalization() (*AblationResult, error) {
	perCycle, err := stats.MeanVIF(core.RateMatrix(c.fullDS.Rows, c.selected), c.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	perSecond, err := stats.MeanVIF(core.RateMatrixPerSecond(c.fullDS.Rows, c.selected), c.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:    "rate normalization (per cycle vs per second)",
		Default: perCycle,
		Variant: perSecond,
		Unit:    "mean VIF",
		Note:    "the paper normalizes counter rates by cycles to reduce multicollinearity",
	}, nil
}

// AblationHCSE quantifies the HC3 choice: the mean coefficient
// standard error of the trained model under HC3 versus HC0, White's
// original heteroscedasticity-consistent estimator. Both allow for the
// heteroscedastic residuals (absolute error grows with power); HC3
// also divides each squared residual by (1−h)², so high-leverage
// observations widen its standard errors where HC0's stay smaller.
func (c *Context) AblationHCSE() (*AblationResult, error) {
	hc3, err := core.Train(c.fullDS.Rows, c.selected, core.TrainOptions{Estimator: stats.CovHC3})
	if err != nil {
		return nil, err
	}
	hc0, err := core.Train(c.fullDS.Rows, c.selected, core.TrainOptions{Estimator: stats.CovHC0})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:    "HCSE estimator (HC3 vs HC0)",
		Default: stats.Mean(hc3.Fit.StdErr),
		Variant: stats.Mean(hc0.Fit.StdErr),
		Unit:    "mean coefficient SE",
		Note:    "HC3 inflates standard errors under heteroscedasticity; point estimates are identical",
	}, nil
}

// AblationCycleInit quantifies the paper's deviation from Walker et
// al.: initializing Algorithm 1 with the cycle counter "neither
// improves nor worsens the accuracy of the resulting model
// significantly" [18]. Returns the final R² with and without the
// initialization.
func (c *Context) AblationCycleInit() (*AblationResult, error) {
	seeded, err := core.SelectEvents(c.selectionDS.Rows, core.SelectOptions{
		Count:          numEvents,
		InitWithCycles: true,
		Parallelism:    c.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:    "Algorithm 1 cycle-counter initialization",
		Default: c.steps[len(c.steps)-1].R2,
		Variant: seeded[len(seeded)-1].R2,
		Unit:    "final R² after 6 counters",
		Note:    "Walker et al. seed the selection with the cycle counter; the paper drops this",
	}, nil
}

// Scenario1Spread runs scenario 1 over many random four-workload draws
// and summarizes the MAPE distribution — an extension beyond the
// paper, which reports a single draw. The draw sensitivity is a
// finding in its own right: with only four training workloads the
// model quality varies enormously with the draw.
func (c *Context) Scenario1Spread(draws int) (stats.Summary, error) {
	base := rng.New(c.cfg.Seed)
	mapes := make([]float64, 0, draws)
	for i := 0; i < draws; i++ {
		res, err := core.Scenario1(c.fullDS, c.selected, base.Split(uint64(1000+i)).Uint64())
		if err != nil {
			return stats.Summary{}, err
		}
		mapes = append(mapes, res.MAPE)
	}
	return stats.Summarize(mapes), nil
}

// --- E13: baselines -----------------------------------------------------

// BaselineRow compares one model's accuracy on the shared evaluation
// protocol: trained on all rows minus a held-out workload-stratified
// test split, evaluated on the test split; plus the cross-DVFS
// transfer test (train at the selection frequency, test at all
// others).
type BaselineRow struct {
	Model string
	// HoldoutMAPE is the MAPE on a random 20 % row holdout.
	HoldoutMAPE float64
	// TransferMAPE is the MAPE on the two unseen DVFS states when
	// trained on the other three. Equation 1's V²f/V physics
	// interpolate; frequency-blind baselines cannot. (Fewer than three
	// training frequencies cannot identify the three DVFS terms
	// {β·V²f, γ·V, δ} at all — which is why the paper trains across
	// five DVFS states.)
	TransferMAPE float64
}

// Baselines reproduces the baseline comparison: the Equation-1 model
// with the selected counters versus the related-work approaches.
func (c *Context) Baselines() ([]BaselineRow, error) {
	ds, sel := c.fullDS, c.selected

	// Random 80/20 split for the holdout protocol.
	r := rng.New(c.cfg.Seed + 99)
	perm := r.Perm(len(ds.Rows))
	cut := len(ds.Rows) * 4 / 5
	trainRows := subsetRows(ds.Rows, perm[:cut])
	testRows := subsetRows(ds.Rows, perm[cut:])

	// Cross-DVFS transfer: train at three spread P-states (the
	// minimum that identifies the three DVFS terms of Equation 1),
	// test on the two unseen ones.
	trainF := map[int]bool{freqsMHz[0]: true, freqsMHz[2]: true, freqsMHz[4]: true}
	atSel := ds.Filter(func(row *acquisition.Row) bool { return trainF[row.FreqMHz] }).Rows
	others := ds.Filter(func(row *acquisition.Row) bool { return !trainF[row.FreqMHz] }).Rows

	var out []BaselineRow

	// Equation-1 model with the selected counters.
	eq1Hold, err := core.Train(trainRows, sel, core.TrainOptions{})
	if err != nil {
		return nil, err
	}
	eq1Sel, err := core.Train(atSel, sel, core.TrainOptions{})
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineRow{
		Model:        "Equation 1 + selected counters (this paper)",
		HoldoutMAPE:  eq1Hold.MAPE(testRows),
		TransferMAPE: eq1Sel.MAPE(others),
	})

	// Rodrigues universal subset.
	rodHold, err := baselines.TrainRodrigues(trainRows)
	if err != nil {
		return nil, err
	}
	rodSel, err := baselines.TrainRodrigues(atSel)
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineRow{
		Model:        rodHold.Name(),
		HoldoutMAPE:  baselines.MAPE(rodHold, testRows),
		TransferMAPE: baselines.MAPE(rodSel, others),
	})

	// Cycles-only Equation 1.
	cycHold, err := baselines.TrainCyclesOnly(trainRows)
	if err != nil {
		return nil, err
	}
	cycSel, err := baselines.TrainCyclesOnly(atSel)
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineRow{
		Model:        cycHold.Name(),
		HoldoutMAPE:  baselines.MAPE(cycHold, testRows),
		TransferMAPE: baselines.MAPE(cycSel, others),
	})

	// Per-frequency linear with the same selected counters.
	pflHold, err := baselines.TrainPerFreqLinear(trainRows, sel)
	if err != nil {
		return nil, err
	}
	pflSel, err := baselines.TrainPerFreqLinear(atSel, sel)
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineRow{
		Model:        pflHold.Name(),
		HoldoutMAPE:  baselines.MAPE(pflHold, testRows),
		TransferMAPE: baselines.MAPE(pflSel, others),
	})
	return out, nil
}

func subsetRows(rows []*acquisition.Row, idx []int) []*acquisition.Row {
	out := make([]*acquisition.Row, len(idx))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}
