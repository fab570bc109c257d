package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pmcpower/internal/core"
	"pmcpower/internal/workloads"
)

// This file renders each experiment as the text table/series the
// paper prints, so cmd/expreport, the test suite and EXPERIMENTS.md
// all share one source of truth.

func fmtVIF(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtStat formats a diagnostic statistic, rendering non-finite values
// as "n/a" instead of letting a NaN from a degenerate fit (see
// stats.ChiSquareSF, stats.VIFColumns) leak into report output verbatim.
func fmtStat(format string, v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// RenderSelectionTable renders Table I (or Table IV, given its rows).
func RenderSelectionTable(title string, rows []SelectionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %8s %8s %10s\n", "Counter", "R²", "Adj.R²", "mean VIF")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8.3f %8.3f %10s\n", r.Counter, r.R2, r.AdjR2, fmtVIF(r.MeanVIF))
	}
	return sb.String()
}

// RenderTableI renders experiment E1.
func (c *Context) RenderTableI() (string, error) {
	return RenderSelectionTable("Table I: selected performance counters (all workloads)", c.TableI()), nil
}

// RenderTableIV renders experiment E10.
func (c *Context) RenderTableIV() (string, error) {
	rows, err := c.TableIV()
	if err != nil {
		return "", err
	}
	return RenderSelectionTable("Table IV: selected performance counters (synthetic workloads only)", rows), nil
}

// RenderFig2 renders experiment E2 as a two-series table.
func (c *Context) RenderFig2() (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 2: R² and Adj.R² vs number of selected counters\n")
	fmt.Fprintf(&sb, "%-3s %-10s %8s %8s\n", "#", "counter", "R²", "Adj.R²")
	for _, p := range c.Fig2() {
		fmt.Fprintf(&sb, "%-3d %-10s %8.3f %8.3f\n", p.NumCounters, p.Counter, p.R2, p.AdjR2)
	}
	return sb.String(), nil
}

// RenderTableII renders experiment E3.
func (c *Context) RenderTableII() (string, error) {
	t := c.TableIIResult()
	var sb strings.Builder
	sb.WriteString("Table II: summary of results for 10-fold cross validation\n")
	fmt.Fprintf(&sb, "%-8s %8s %8s %8s\n", "Metric", "Min", "Max", "Mean")
	fmt.Fprintf(&sb, "%-8s %8.4f %8.4f %8.4f\n", "R²", t.R2.Min, t.R2.Max, t.R2.Mean)
	fmt.Fprintf(&sb, "%-8s %8.4f %8.4f %8.4f\n", "Adj.R²", t.AdjR2.Min, t.AdjR2.Max, t.AdjR2.Mean)
	fmt.Fprintf(&sb, "%-8s %8.4f %8.4f %8.4f\n", "MAPE", t.MAPE.Min, t.MAPE.Max, t.MAPE.Mean)
	if t.SkippedObs > 0 {
		fmt.Fprintf(&sb, "warning: %d held-out observations excluded from MAPE (near-zero actual power)\n", t.SkippedObs)
	}
	return sb.String(), nil
}

// RenderFig3 renders experiment E4.
func (c *Context) RenderFig3() (string, error) {
	bars, err := c.Fig3()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: MAPE per workload across all DVFS states\n")
	sorted := append([]Fig3Bar(nil), bars...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].MAPE > sorted[j].MAPE })
	for _, b := range sorted {
		suite := "roco2"
		if b.Class == workloads.SPEC {
			suite = "SPEC"
		}
		fmt.Fprintf(&sb, "%-16s %-6s %6.2f%% %s\n", b.Workload, suite, b.MAPE, strings.Repeat("#", int(b.MAPE+0.5)))
	}
	return sb.String(), nil
}

// RenderFig4 renders experiment E5.
func (c *Context) RenderFig4() (string, error) {
	bars, err := c.Fig4()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: MAPE for the four training scenarios\n")
	for _, b := range bars {
		fmt.Fprintf(&sb, "%d) %-50s %6.2f%%", b.Scenario, b.Name, b.MAPE)
		if b.Skipped > 0 {
			fmt.Fprintf(&sb, "  (%d obs excluded: near-zero actual power)", b.Skipped)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// renderScatter renders a Figure-5-style actual-vs-estimated list,
// grouped by workload with per-workload bias.
func renderScatter(title string, preds []core.Prediction) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	byWL := map[string][]core.Prediction{}
	var names []string
	for _, p := range preds {
		if _, ok := byWL[p.Row.Workload]; !ok {
			names = append(names, p.Row.Workload)
		}
		byWL[p.Row.Workload] = append(byWL[p.Row.Workload], p)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "%-16s %6s %10s %10s %8s\n", "workload", "n", "actual[W]", "estim.[W]", "bias[%]")
	for _, n := range names {
		var act, est float64
		ps := byWL[n]
		for _, p := range ps {
			act += p.Actual
			est += p.Predicted
		}
		act /= float64(len(ps))
		est /= float64(len(ps))
		fmt.Fprintf(&sb, "%-16s %6d %10.1f %10.1f %+8.2f\n", n, len(ps), act, est, (est-act)/act*100)
	}
	return sb.String()
}

// RenderFig5a renders experiment E6.
func (c *Context) RenderFig5a() (string, error) {
	preds, err := c.Fig5a()
	if err != nil {
		return "", err
	}
	return renderScatter("Figure 5a: actual vs estimated power (scenario 2: train synthetic, test SPEC)", preds), nil
}

// RenderFig5b renders experiment E7.
func (c *Context) RenderFig5b() (string, error) {
	return renderScatter("Figure 5b: actual vs estimated power (scenario 3: 10-fold CV)", c.Fig5b()), nil
}

// RenderTableIII renders experiment E8.
func (c *Context) RenderTableIII() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table III: Pearson correlation of selected counters with power\n")
	fmt.Fprintf(&sb, "%-10s %6s\n", "Counter", "PCC")
	for _, r := range c.TableIII() {
		fmt.Fprintf(&sb, "%-10s %+6.2f\n", r.Counter, r.PCC)
	}
	return sb.String(), nil
}

// RenderFig6 renders experiment E9.
func (c *Context) RenderFig6() (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 6: PCC of all PAPI counters with power\n")
	for _, r := range c.Fig6() {
		bar := ""
		if !math.IsNaN(r.PCC) {
			bar = strings.Repeat("#", int(math.Abs(r.PCC)*40+0.5))
		}
		pcc := "   n/a"
		if !math.IsNaN(r.PCC) {
			pcc = fmt.Sprintf("%+6.2f", r.PCC)
		}
		fmt.Fprintf(&sb, "%-10s %s %s\n", r.Counter, pcc, bar)
	}
	return sb.String(), nil
}

// RenderSeventh renders experiment E11.
func (c *Context) RenderSeventh(count int) (string, error) {
	ext, err := c.ExtendedSelection(count)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extended selection to %d counters (paper §IV-A: the 7th counter explodes VIF)\n", count)
	sb.WriteString(RenderSelectionTable("", ext.Rows))
	if ext.ExplodeAt > 0 {
		fmt.Fprintf(&sb, "mean VIF first exceeds %.0f at counter #%d\n", ext.Threshold, ext.ExplodeAt)
	} else {
		fmt.Fprintf(&sb, "mean VIF never exceeds %.0f within %d counters\n", ext.Threshold, count)
	}
	return sb.String(), nil
}

// RenderAblations renders experiment E12.
func (c *Context) RenderAblations() (string, error) {
	var sb strings.Builder
	sb.WriteString("Ablations of the paper's design choices\n")
	rate, err := c.AblationRateNormalization()
	if err != nil {
		return "", err
	}
	hcse, err := c.AblationHCSE()
	if err != nil {
		return "", err
	}
	cyc, err := c.AblationCycleInit()
	if err != nil {
		return "", err
	}
	for _, a := range []*AblationResult{rate, hcse, cyc} {
		fmt.Fprintf(&sb, "%-48s default=%.4g variant=%.4g (%s)\n  %s\n", a.Name, a.Default, a.Variant, a.Unit, a.Note)
	}
	spread, err := c.Scenario1Spread(12)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "%-48s min=%.1f%% max=%.1f%% mean=%.1f%% (MAPE over 12 draws)\n  %s\n",
		"scenario-1 draw sensitivity (extension)", spread.Min, spread.Max, spread.Mean,
		"with only four training workloads, accuracy varies enormously with the draw")
	return sb.String(), nil
}

// RenderBaselines renders experiment E13.
func (c *Context) RenderBaselines() (string, error) {
	rows, err := c.Baselines()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Baseline comparison (80/20 holdout; DVFS transfer = train at 1200/2000/2600 MHz, test 1600+2400 MHz)\n")
	fmt.Fprintf(&sb, "%-46s %12s %13s\n", "model", "holdout MAPE", "transfer MAPE")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-46s %11.2f%% %12.2f%%\n", r.Model, r.HoldoutMAPE, r.TransferMAPE)
	}
	return sb.String(), nil
}
