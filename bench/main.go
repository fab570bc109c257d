// Command bench is the seeded benchmark of the pmcpowerd daemon and
// the paper's modeling pipeline, with a per-layer ladder.
//
// Usage (from the repository root; run.sh builds the bench and
// forwards its arguments):
//
//	bash bench/run.sh -seed 1                       # all workloads, untraced
//	bash bench/run.sh -workload stream-batch -seed 3 -seconds 16 -trace 0
//	bash bench/run.sh -seed 1 -trace t.json         # the traced ladder; spans to t.json
//	bash bench/run.sh -validate .bench_build/report.json
//	bash bench/run.sh -compare A1.json,A2.json B1.json,B2.json
//
// Every run writes a pmcpower/bench/v1 report (-out) and prints, as
// its last line, one JSON object with correct, attempted, failed and
// the metrics BENCHMARK.json names: the end-to-end ones untraced, the
// per-layer ones traced. It exits non-zero if any correctness check
// fails. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pmcpower/internal/obs"
	"pmcpower/internal/workloads"
)

// config is one bench invocation's settings.
type config struct {
	root, work string
	seed       uint64
	seconds    float64 // measured seconds per workload
	tracer     *obs.Tracer
	// scale shrinks the run's fixed counts (set-ups, warmup, session
	// payloads, ladder, the pipeline's campaign) for tests; 1 runs them
	// at full size.
	scale     float64
	daemonBin string
	cal       *calibration
	// pipeline is a traced invocation's pipeline run, measured once for
	// the pipeline layers every stream workload reports.
	pipeline *pipelineRun
}

// setupRuns is how many times a workload sets up; setup_s is the
// median.
const setupRuns = 5

// scaled shrinks a fixed count by cfg.scale, keeping at least one.
func (cfg *config) scaled(n int) int { return max(1, int(float64(n)*cfg.scale)) }

// pipelineWorkloads are the campaign's workloads: every active one,
// or at a reduced scale the first few (selection needs at least four
// workloads' rows).
func (cfg *config) pipelineWorkloads() []*workloads.Workload {
	wls := workloads.Active()
	return wls[:min(len(wls), max(4, cfg.scaled(len(wls))))]
}

func main() {
	if seed, ok := os.LookupEnv(coldEnv); ok {
		os.Exit(runColdChild(seed))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: every workload in BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "traffic and acquisition seed")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: BENCHMARK.json run_seconds)")
	trace := fs.String("trace", "0", "0 = untraced; 1 = traced, spans to .bench_build/trace.json; or the trace file path")
	out := fs.String("out", "", "report path (default .bench_build/report.json)")
	validate := fs.String("validate", "", "validate a report file and exit")
	compare := fs.String("compare", "", "comma-separated A reports; the B reports follow as the argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	switch {
	case *validate != "":
		if _, err := readReport(*validate, spec); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: valid %s report\n", *validate, reportSchema)
		return 0
	case *compare != "":
		if fs.NArg() != 1 {
			return fail(errors.New("-compare A1,A2,... takes the B reports as one comma-separated argument"))
		}
		n, err := compareReports(stdout, spec, strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%d end-to-end rows not unchanged\n", n)
		return 0
	}

	cfg := &config{root: root, seed: *seed, seconds: *seconds, scale: 1}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	var tracePath string
	switch *trace {
	case "0", "":
	case "1":
		tracePath = filepath.Join(root, ".bench_build", "trace.json")
	default:
		tracePath = *trace
	}
	if tracePath != "" {
		cfg.tracer = obs.NewTracer()
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if !spec.workloadSet[*workload] {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	reportPath := *out
	if reportPath == "" {
		reportPath = filepath.Join(root, ".bench_build", "report.json")
	}
	cfg.work = filepath.Join(root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.work)

	rep, err := runWorkloads(cfg, names, stdout)
	if err != nil {
		return fail(err)
	}
	if err := rep.write(reportPath); err != nil {
		return fail(err)
	}
	if tracePath != "" {
		if err := cfg.tracer.WriteChromeTraceFile(tracePath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", tracePath, cfg.tracer.Len())
	}
	fmt.Fprintf(stdout, "report: %s\n", reportPath)
	line, ok := driverLine(rep, spec)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// runWorkloads runs each named workload and prints its metrics.
func runWorkloads(cfg *config, names []string, stdout io.Writer) (*report, error) {
	rep := newReport(cfg)
	fmt.Fprintf(stdout, "machine: %s; seed %d; %g s per workload; traced %v\n",
		rep.Machine, cfg.seed, cfg.seconds, cfg.tracer != nil)
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.finish(cfg.tracer != nil)
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

// runWorkload runs one workload. A traced run also measures the
// layers the workload bypasses, so every traced run reports every
// per-layer metric: a stream workload adds one pipeline run (shared by
// the stream workloads of one invocation), and paper-pipeline adds
// stream-batch's serving measurements.
func runWorkload(cfg *config, name string) (*result, error) {
	if err := cfg.prepare(name); err != nil {
		return nil, err
	}
	if name == "paper-pipeline" {
		res, err := runPipeline(cfg)
		if err != nil || cfg.tracer == nil {
			return res, err
		}
		w, _ := streamByName("stream-batch")
		serving, err := runStream(cfg, w)
		if err != nil {
			return nil, err
		}
		res.merge(serving)
		return res, nil
	}
	w, _ := streamByName(name)
	res, err := runStream(cfg, w)
	if err != nil || cfg.tracer == nil {
		return res, err
	}
	if cfg.pipeline == nil {
		if cfg.pipeline, err = runPipelineOnce(cfg.seed, cfg.pipelineWorkloads(), cfg.tracer); err != nil {
			return nil, err
		}
	}
	setPipelineLayers(res, []*pipelineRun{cfg.pipeline})
	return res, nil
}

// prepare builds the daemon and the reference calibration once, when
// the workload needs them.
func (cfg *config) prepare(name string) error {
	if name == "paper-pipeline" && cfg.tracer == nil {
		return nil
	}
	if cfg.cal == nil {
		cal, err := calibrate()
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		cfg.cal = cal
	}
	if cfg.daemonBin == "" {
		bin, err := buildDaemon(cfg.root, cfg.work)
		if err != nil {
			return err
		}
		cfg.daemonBin = bin
	}
	return nil
}

func knownWorkload(name string) bool {
	_, ok := streamByName(name)
	return ok || name == "paper-pipeline"
}

// printResult prints a workload's metrics by name with their units,
// its ladder, and any failures.
func printResult(w io.Writer, res *result) {
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "== %s: %s (%d attempted, %d failed)\n", res.Name, status, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14s %s\n", n, fmtNum(v.Value), v.Unit)
	}
	if len(res.Ladder) > 0 {
		fmt.Fprintf(w, "  %-20s %12s %12s %14s\n", "rung", "ns/sample", "allocs/smp", "delta ns")
		for _, r := range res.Ladder {
			delta := ""
			if r.DeltaNs != 0 {
				delta = fmt.Sprintf("%+.0f", r.DeltaNs)
			}
			fmt.Fprintf(w, "  %-20s %12.0f %12.2f %14s\n", r.Name, r.NsPerSample, r.AllocsPerSample, delta)
		}
	}
	for _, s := range res.Warnings {
		fmt.Fprintln(w, "  warning:", s)
	}
	for _, s := range res.Failures {
		fmt.Fprintln(w, "  FAIL:", s)
	}
}

// driverLine renders the final stdout line: correct, attempted, failed
// and the BENCHMARK.json metrics. With several workloads each metric
// name is prefixed by its workload.
func driverLine(rep *report, spec *benchSpec) (string, bool) {
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	l := line{Correct: true, Metrics: map[string]metricValue{}}
	for _, res := range rep.Workloads {
		l.Correct = l.Correct && res.Correct
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		for _, m := range spec.required(rep.Traced) {
			key := m.Name
			if len(rep.Workloads) > 1 {
				key = res.Name + "/" + m.Name
			}
			v, ok := res.Metrics[m.Name]
			if !ok {
				l.Correct = false
				continue
			}
			l.Metrics[key] = v
		}
	}
	b, _ := json.Marshal(l) // plain structs: cannot fail
	return string(b), l.Correct
}
