package experiments

import (
	"context"

	"pmcpower/internal/obs"
	"pmcpower/internal/parallel"
)

// Renderer is one entry of the experiment registry: a stable id (the
// cmd/expreport -exp flag value), a human-readable description, and
// the render function producing the experiment's report text.
type Renderer struct {
	ID     string
	Desc   string
	Render func() (string, error)
}

// Renderers returns the full experiment registry E1–E17 in canonical
// order. The slice is freshly allocated; callers may filter it.
func (c *Context) Renderers() []Renderer {
	return []Renderer{
		{"table1", "E1: Table I — counter selection on all workloads", c.RenderTableI},
		{"fig2", "E2: Figure 2 — R²/Adj.R² progression", c.RenderFig2},
		{"table2", "E3: Table II — 10-fold cross validation", c.RenderTableII},
		{"fig3", "E4: Figure 3 — per-workload MAPE", c.RenderFig3},
		{"fig4", "E5: Figure 4 — training scenarios", c.RenderFig4},
		{"fig5a", "E6: Figure 5a — actual vs estimated (scenario 2)", c.RenderFig5a},
		{"fig5b", "E7: Figure 5b — actual vs estimated (scenario 3)", c.RenderFig5b},
		{"table3", "E8: Table III — PCC of selected counters", c.RenderTableIII},
		{"fig6", "E9: Figure 6 — PCC of all counters", c.RenderFig6},
		{"table4", "E10: Table IV — selection on synthetic only", c.RenderTableIV},
		{"seventh", "E11: extended selection / VIF explosion", func() (string, error) { return c.RenderSeventh(11) }},
		{"ablations", "E12: design-choice ablations", c.RenderAblations},
		{"baselines", "E13: baseline comparison", c.RenderBaselines},
		{"strategies", "E14: selection-strategy comparison (future work)", c.RenderStrategies},
		{"transform", "E15: stage-2 transformation search", c.RenderTransformations},
		{"hetero", "Breusch–Pagan heteroscedasticity test", c.RenderHeteroscedasticity},
		{"stability", "E16: bootstrap coefficient stability", c.RenderStability},
		{"crossplatform", "E17: x86 vs embedded ARM accuracy", c.RenderCrossPlatform},
	}
}

// RenderedExperiment is one experiment's finished report.
type RenderedExperiment struct {
	ID     string
	Desc   string
	Output string
}

// RunAllCtx renders every registered experiment and returns the
// reports in canonical order regardless of completion order.
// parallelism bounds the concurrent renders (0 = GOMAXPROCS, 1 =
// serial); each render additionally uses the context's
// Config.Parallelism internally. Every render reads the pipeline
// NewContext ran, so the reports are bit-identical to a serial run.
// When ctx carries an obs.Tracer, every experiment render emits an
// "exp:<id>" span in the lane of the worker that ran it, so the
// fan-out's load balance is visible in the exported timeline; the
// reports are bit-identical with or without a tracer.
func (c *Context) RunAllCtx(ctx context.Context, parallelism int) ([]RenderedExperiment, error) {
	regs := c.Renderers()
	return parallel.MapCtx(ctx, len(regs), parallelism, func(ctx context.Context, i int) (RenderedExperiment, error) {
		_, span := obs.FromContext(ctx).StartSpan(ctx, "exp:"+regs[i].ID, obs.String("desc", regs[i].Desc))
		defer span.End()
		out, err := regs[i].Render()
		if err != nil {
			return RenderedExperiment{}, err
		}
		return RenderedExperiment{ID: regs[i].ID, Desc: regs[i].Desc, Output: out}, nil
	})
}
