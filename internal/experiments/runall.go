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

// registry is the experiment registry E1–E17 in canonical order: each
// experiment's id, description and render method.
var registry = []struct {
	id, desc string
	render   func(*Context) (string, error)
}{
	{"table1", "E1: Table I — counter selection on all workloads", (*Context).RenderTableI},
	{"fig2", "E2: Figure 2 — R²/Adj.R² progression", (*Context).RenderFig2},
	{"table2", "E3: Table II — 10-fold cross validation", (*Context).RenderTableII},
	{"fig3", "E4: Figure 3 — per-workload MAPE", (*Context).RenderFig3},
	{"fig4", "E5: Figure 4 — training scenarios", (*Context).RenderFig4},
	{"fig5a", "E6: Figure 5a — actual vs estimated (scenario 2)", (*Context).RenderFig5a},
	{"fig5b", "E7: Figure 5b — actual vs estimated (scenario 3)", (*Context).RenderFig5b},
	{"table3", "E8: Table III — PCC of selected counters", (*Context).RenderTableIII},
	{"fig6", "E9: Figure 6 — PCC of all counters", (*Context).RenderFig6},
	{"table4", "E10: Table IV — selection on synthetic only", (*Context).RenderTableIV},
	{"seventh", "E11: extended selection / VIF explosion", func(c *Context) (string, error) { return c.RenderSeventh(11) }},
	{"ablations", "E12: design-choice ablations", (*Context).RenderAblations},
	{"baselines", "E13: baseline comparison", (*Context).RenderBaselines},
	{"strategies", "E14: selection-strategy comparison (future work)", (*Context).RenderStrategies},
	{"transform", "E15: stage-2 transformation search", (*Context).RenderTransformations},
	{"hetero", "Breusch–Pagan heteroscedasticity test", (*Context).RenderHeteroscedasticity},
	{"stability", "E16: bootstrap coefficient stability", (*Context).RenderStability},
	{"crossplatform", "E17: x86 vs embedded ARM accuracy", (*Context).RenderCrossPlatform},
}

// IDs returns the registry's ids in canonical order: the values of
// cmd/expreport's -exp flag besides "all". It needs no Context, so a
// caller can refuse an unknown id before running the pipeline.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Renderers returns the experiment registry in canonical order, each
// render bound to c. The slice is freshly allocated; callers may
// filter it.
func (c *Context) Renderers() []Renderer {
	out := make([]Renderer, len(registry))
	for i, e := range registry {
		out[i] = Renderer{ID: e.id, Desc: e.desc, Render: func() (string, error) { return e.render(c) }}
	}
	return out
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
