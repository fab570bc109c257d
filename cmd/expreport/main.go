// Command expreport regenerates the tables and figures of the paper's
// evaluation on the simulated platform.
//
// Usage:
//
//	expreport [-exp id] [-seed n] [-j n] [-trace out.json] [-log-level level]
//
// With no -exp flag every experiment is printed in order. Valid ids:
// table1, fig2, table2, fig3, fig4, fig5a, fig5b, table3, fig6,
// table4, seventh, ablations, baselines, strategies, transform,
// hetero, stability, crossplatform.
//
// -j bounds the worker parallelism of the modeling pipeline and of
// the experiment fan-out (0 = all cores, 1 = serial). The output is
// bit-identical at every setting.
//
// -trace writes a Chrome trace_event JSON timeline of the run —
// loadable in chrome://tracing or https://ui.perfetto.dev. Under the
// "expreport" root it holds the shared pipeline every experiment
// reads (the acquire, selection and cv spans with their children),
// then one "exp:<id>" span per experiment in its worker's lane. The
// work one experiment does alone (Table IV's selection, the scenario
// fits, the all-counter campaign of the strategy comparison, the
// bootstrap and the ARM campaigns) records no spans. Tracing does not
// change the printed reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"pmcpower/internal/buildinfo"
	"pmcpower/internal/experiments"
	"pmcpower/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments.IDs(), ", ")+", all)")
	seed := flag.Uint64("seed", 0, "override the acquisition seed (0 = canonical)")
	par := flag.Int("j", 0, "worker parallelism (0 = all cores, 1 = serial)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file")
	logLevel := flag.String("log-level", "warn", "log level for progress records: debug, info, warn, error")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("expreport"))
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expreport:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	// Refuse an unknown id before the pipeline runs.
	want := strings.ToLower(*exp)
	idx := slices.Index(experiments.IDs(), want)
	if idx < 0 && want != "all" {
		fmt.Fprintf(os.Stderr, "expreport: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallelism = *par

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	runCtx := obs.ContextWithTracer(context.Background(), tracer)
	runCtx, rootSpan := tracer.StartSpan(runCtx, "expreport", obs.String("exp", *exp))
	ctx, err := experiments.NewContext(runCtx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expreport: %v\n", err)
		os.Exit(1)
	}

	writeTrace := func() {
		rootSpan.End()
		if *tracePath == "" {
			return
		}
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "expreport:", err)
			os.Exit(1)
		}
		logger.Info("trace written", "path", *tracePath, "spans", tracer.Len())
	}

	if want == "all" {
		rendered, err := ctx.RunAllCtx(runCtx, *par)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expreport: %v\n", err)
			os.Exit(1)
		}
		for _, r := range rendered {
			fmt.Printf("=== %s ===\n%s\n", r.Desc, r.Output)
		}
		writeTrace()
		return
	}

	r := ctx.Renderers()[idx]
	_, span := tracer.StartSpan(runCtx, "exp:"+r.ID, obs.String("desc", r.Desc))
	out, err := r.Render()
	span.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "expreport: %s: %v\n", r.ID, err)
		os.Exit(1)
	}
	fmt.Printf("=== %s ===\n%s\n", r.Desc, out)
	writeTrace()
}
