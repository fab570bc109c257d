package experiments

import (
	"fmt"
	"math"
	"strings"

	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// This file implements the experiments beyond the paper's evaluation:
// the future-work directions the paper names (§VI: "analyzing
// different statistical algorithms and heuristic criterions for
// selecting PMC events") and checkable versions of claims the paper
// makes in passing (the stage-2 transformation being inapplicable;
// the residuals being heteroscedastic).

// --- E14: selection-strategy comparison --------------------------------

// StrategyRow is one row of the strategy-comparison table.
type StrategyRow struct {
	Strategy     string
	Counters     []string
	R2           float64
	MeanVIF      float64
	CVMAPE       float64
	TransferMAPE float64
}

// StrategyComparison runs every implemented selection strategy
// (Algorithm 1, backward elimination, |PCC| ranking, greedy AIC,
// LASSO path) on the selection dataset and scores the resulting
// six-counter sets on accuracy (10-fold CV) and stability
// (synthetic→SPEC transfer).
func (c *Context) StrategyComparison() ([]StrategyRow, error) {
	full, err := c.fullAllDS()
	if err != nil {
		return nil, err
	}
	cmps, err := core.CompareStrategiesP(c.selectionDS.Rows, full.Rows, numEvents, cvSeed, c.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]StrategyRow, len(cmps))
	for i, cmp := range cmps {
		out[i] = StrategyRow{
			Strategy:     cmp.Strategy.String(),
			Counters:     pmu.ShortNames(cmp.Events),
			R2:           cmp.R2,
			MeanVIF:      cmp.MeanVIF,
			CVMAPE:       cmp.CVMAPE,
			TransferMAPE: cmp.TransferMAPE,
		}
	}
	return out, nil
}

// RenderStrategies renders experiment E14.
func (c *Context) RenderStrategies() (string, error) {
	rows, err := c.StrategyComparison()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Selection-strategy comparison (paper §VI future work)\n")
	fmt.Fprintf(&sb, "%-24s %7s %8s %8s %10s  %s\n", "strategy", "R²", "meanVIF", "CV MAPE", "transfer", "counters")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %7.3f %8s %7.2f%% %9.2f%%  %s\n",
			r.Strategy, r.R2, fmtStat("%.2f", r.MeanVIF), r.CVMAPE, r.TransferMAPE, strings.Join(r.Counters, ","))
	}
	return sb.String(), nil
}

// --- E15: Walker stage-2 transformation search --------------------------

// TransformationReport summarizes the stage-2 transformation attempt.
type TransformationReport struct {
	Candidates []core.TransformCandidate
	// AnyApplicable is the checkable version of the paper's claim:
	// the paper found *no* applicable transformation on x86.
	AnyApplicable bool
}

// TransformationSearch runs Walker et al.'s stage 2 on the canonical
// selected set.
func (c *Context) TransformationSearch() (*TransformationReport, error) {
	cands, err := core.TransformationSearch(c.selectionDS.Rows, c.selected)
	if err != nil {
		return nil, err
	}
	rep := &TransformationReport{Candidates: cands}
	for _, cand := range cands {
		if cand.Applicable {
			rep.AnyApplicable = true
		}
	}
	return rep, nil
}

// RenderTransformations renders experiment E15.
func (c *Context) RenderTransformations() (string, error) {
	rep, err := c.TransformationSearch()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Stage-2 transformation search (Walker et al.; paper §III-B/IV-A)\n")
	fmt.Fprintf(&sb, "%-18s %-10s %-16s %10s %10s %8s %8s %s\n",
		"target", "reference", "transform", "VIF before", "VIF after", "R² bef", "R² aft", "applicable")
	for _, cd := range rep.Candidates {
		fmt.Fprintf(&sb, "%-18s %-10s %-16s %10.3f %10.3f %8.4f %8.4f %v\n",
			pmu.Lookup(cd.Target).Short, pmu.Lookup(cd.Reference).Short, cd.Kind,
			cd.MeanVIFBefore, cd.MeanVIFAfter, cd.R2Before, cd.R2After, cd.Applicable)
	}
	if rep.AnyApplicable {
		sb.WriteString("at least one transformation is applicable on this platform\n")
	} else {
		sb.WriteString("no transformation applicable — matching the paper's finding on x86\n")
	}
	return sb.String(), nil
}

// --- E16: bootstrap coefficient stability --------------------------------

// StabilityReport contrasts the bootstrap stability of the model
// coefficients when trained on the full dataset versus the
// synthetic-only subset — a direct measurement of the paper's §V
// concession that "a low VIF was no guarantee for a stable model".
type StabilityReport struct {
	Full      *core.BootstrapResult
	Synthetic *core.BootstrapResult
}

// BootstrapStability runs the analysis with 200 replicates.
func (c *Context) BootstrapStability() (*StabilityReport, error) {
	full, err := core.Bootstrap(c.fullDS.Rows, c.selected, 200, c.cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	syn, err := core.Bootstrap(c.fullDS.ByClass(workloads.Synthetic).Rows, c.selected, 200, c.cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	return &StabilityReport{Full: full, Synthetic: syn}, nil
}

// RenderStability renders experiment E16.
func (c *Context) RenderStability() (string, error) {
	rep, err := c.BootstrapStability()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Bootstrap coefficient stability (200 resampled refits)\n")
	fmt.Fprintf(&sb, "%-10s | %12s %12s %6s | %12s %12s %6s\n",
		"", "full: point", "± std", "sign", "synth: point", "± std", "sign")
	for i, fc := range rep.Full.Coefficients {
		sc := rep.Synthetic.Coefficients[i]
		mark := func(ok bool) string {
			if ok {
				return "ok"
			}
			return "FLIP"
		}
		fmt.Fprintf(&sb, "%-10s | %12.3f %12.3f %6s | %12.3f %12.3f %6s\n",
			fc.Name, fc.Point, fc.Std, mark(fc.SignStable), sc.Point, sc.Std, mark(sc.SignStable))
	}
	fmt.Fprintf(&sb, "sign-unstable coefficients — full: %v, synthetic-only: %v\n",
		rep.Full.UnstableCoefficients(), rep.Synthetic.UnstableCoefficients())
	sb.WriteString("(the paper's §V: \"a low VIF was no guarantee for a stable model\")\n")
	return sb.String(), nil
}

// --- heteroscedasticity: formal test -------------------------------------

// HeteroscedasticityTest runs the Breusch–Pagan test on the canonical
// Equation-1 fit over the full dataset.
func (c *Context) HeteroscedasticityTest() (*stats.BPResult, error) {
	x, y, err := core.DesignMatrix(c.fullDS.Rows, c.selected)
	if err != nil {
		return nil, err
	}
	return stats.BreuschPagan(x, y)
}

// RenderHeteroscedasticity renders the formal test result.
func (c *Context) RenderHeteroscedasticity() (string, error) {
	bp, err := c.HeteroscedasticityTest()
	if err != nil {
		return "", err
	}
	verdict := "homoscedastic (no evidence against)"
	switch {
	case math.IsNaN(bp.PValue):
		verdict = "inconclusive (degenerate residual regression)"
	case bp.PValue < 0.01:
		verdict = "heteroscedastic (reject homoscedasticity at 1%) — HC3 justified"
	}
	return fmt.Sprintf("Breusch–Pagan test on the Equation-1 residuals\nLM = %s, df = %d, p = %s → %s\n",
		fmtStat("%.2f", bp.LM), bp.DF, fmtStat("%.3g", bp.PValue), verdict), nil
}
