package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

// pipelineRate is the paper-pipeline repeat count per measured second,
// frozen from the reference machine (0.65 to 1 s per repeat).
const pipelineRate = 1.0

// pipelineCalls names the five public calls of one pipeline run, in
// order; they are also the span names of a traced run.
var pipelineCalls = []string{
	"acquisition.selection_campaign", "core.select", "acquisition.full_campaign", "core.train", "core.cv",
}

// pipelineRun is one pass of the researcher's path: acquire every
// counter at 2400 MHz, select six events, acquire those at all five
// P-states, train Equation 1, and 10-fold cross-validate.
type pipelineRun struct {
	events   []pmu.EventID
	coeffs   []float64
	cvMAPE   float64
	rows     int
	wall     time.Duration
	calls    []time.Duration // aligned with pipelineCalls
	allocMiB float64
	cpu      time.Duration // process CPU time over the run
}

// runPipelineOnce runs the pipeline over wls with the acquisition
// seed and Parallelism = nproc, timing each public call. With a tracer
// it records one span per call.
func runPipelineOnce(seed uint64, wls []*workloads.Workload, tr *obs.Tracer) (*pipelineRun, error) {
	par := runtime.NumCPU()
	run := &pipelineRun{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	timed := func(name string, fn func() error) error {
		_, span := tr.StartSpan(context.Background(), name)
		t0 := time.Now()
		err := fn()
		run.calls = append(run.calls, time.Since(t0))
		span.End()
		return err
	}
	var selDS, full *acquisition.Dataset
	var steps []core.SelectionStep
	var m *core.Model
	var cv *core.CVResult
	err = timed(pipelineCalls[0], func() (err error) {
		selDS, err = acquisition.Acquire(acquisition.Options{Seed: seed, Parallelism: par}, wls, []int{2400})
		return err
	})
	if err == nil {
		err = timed(pipelineCalls[1], func() (err error) {
			steps, err = core.SelectEvents(selDS.Rows, core.SelectOptions{Count: 6, Parallelism: par})
			return err
		})
	}
	if err == nil {
		run.events = core.Events(steps)
		err = timed(pipelineCalls[2], func() (err error) {
			full, err = acquisition.Acquire(acquisition.Options{Seed: seed, Events: run.events, Parallelism: par},
				wls, pStates)
			return err
		})
	}
	if err == nil {
		err = timed(pipelineCalls[3], func() (err error) {
			m, err = core.Train(full.Rows, run.events, core.TrainOptions{})
			return err
		})
	}
	if err == nil {
		err = timed(pipelineCalls[4], func() (err error) {
			cv, err = core.CrossValidateP(full.Rows, run.events, 10, seed, par)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	run.wall = time.Since(start)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&ms1)
	run.allocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	run.rows = len(selDS.Rows) + len(full.Rows)
	run.coeffs = append(append([]float64{m.Delta}, m.Alpha...), m.Beta, m.Gamma)
	run.cvMAPE = cv.OverallMAPE()
	return run, nil
}

// sameResult reports whether two runs selected the same events with
// bit-identical coefficients and CV MAPE.
func (a *pipelineRun) sameResult(b *pipelineRun) error {
	if fmt.Sprint(a.events) != fmt.Sprint(b.events) {
		return fmt.Errorf("selected %v, first run selected %v", pmu.ShortNames(b.events), pmu.ShortNames(a.events))
	}
	for i := range a.coeffs {
		if !sameBits(a.coeffs[i], b.coeffs[i]) {
			return fmt.Errorf("coefficient %d is %v, first run %v", i, b.coeffs[i], a.coeffs[i])
		}
	}
	if !sameBits(a.cvMAPE, b.cvMAPE) {
		return fmt.Errorf("CV MAPE %v, first run %v", b.cvMAPE, a.cvMAPE)
	}
	return nil
}

// runPipeline runs the paper-pipeline workload in process: one
// untimed run as the reference, setupRuns cold runs in fresh processes
// for the set-up time, then the timed repeats, every run checked
// against the reference. On this workload a "request" is one whole
// pipeline run and a "sample" one campaign row; each end-to-end value
// is a median over the repeats, the peak RSS included: a single peak
// over all repeats depends on where the garbage collector happened to
// run.
func runPipeline(cfg *config) (*result, error) {
	res := newResult("paper-pipeline")
	wls := cfg.pipelineWorkloads()
	first, err := runPipelineOnce(cfg.seed, wls, cfg.tracer)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < cfg.scaled(setupRuns); i++ {
		took, cold, err := coldPipeline(cfg.seed, wls)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if err := first.sameResult(cold); err != nil {
			res.Failed++
			res.check(fmt.Errorf("cold run %d: %w", i+1, err))
		}
		setups = append(setups, took.Seconds())
	}
	repeats := max(1, int(math.Round(pipelineRate*cfg.seconds)))
	runs := make([]*pipelineRun, 0, repeats)
	var walls, tput, cpuPerRow, peaks []float64
	ticks0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		// Writing 5 to clear_refs resets the peak RSS to the current
		// RSS, so each repeat reads its own peak.
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, err
		}
		r, err := runPipelineOnce(cfg.seed, wls, cfg.tracer)
		if err != nil {
			return nil, err
		}
		peak, err := procMemKB(os.Getpid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		res.Attempted++
		if err := first.sameResult(r); err != nil {
			res.Failed++
			res.check(fmt.Errorf("repeat %d: %w", i+1, err))
		}
		runs = append(runs, r)
		walls = append(walls, r.wall.Seconds())
		tput = append(tput, float64(r.rows)/r.wall.Seconds())
		cpuPerRow = append(cpuPerRow, r.cpu.Seconds()/float64(r.rows))
	}
	ticks1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	res.setSteal(stealPct(ticks0, ticks1))
	sort.Float64s(walls)
	res.set("setup_s", median(setups))
	res.set("throughput_sps", median(tput))
	res.set("latency_p50_ms", quantile(walls, 0.50)*1e3)
	res.set("latency_p99_ms", quantile(walls, 0.99)*1e3)
	res.set("latency_samples", float64(len(walls)))
	res.set("cpu_us_per_sample", median(cpuPerRow)*1e6)
	res.set("max_rss_mb", median(peaks)/1024)
	setPipelineLayers(res, runs)
	return res, nil
}

// setPipelineLayers records the per-call medians over runs, and the
// runs' CPU utilisation: process CPU over wall time × nproc.
func setPipelineLayers(res *result, runs []*pipelineRun) {
	for i, name := range pipelineCalls {
		v := make([]float64, len(runs))
		for j, r := range runs {
			v[j] = r.calls[i].Seconds()
		}
		res.set(name+"_s", median(v))
	}
	alloc := make([]float64, len(runs))
	var cpu, wall time.Duration
	for j, r := range runs {
		alloc[j] = r.allocMiB
		cpu += r.cpu
		wall += r.wall
	}
	res.set("pipeline.alloc_mb", median(alloc))
	res.set("pipeline.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))
}

// coldEnv, when set in the environment to "seed/workload,workload,...",
// makes the bench process run one pipeline over those workloads, print
// the result and exit: the cold start a researcher pays on every run
// of the pipeline.
const coldEnv = "PMCPOWER_BENCH_COLD_PIPELINE"

// coldResult is what a cold pipeline process reports.
type coldResult struct {
	Events []pmu.EventID `json:"events"`
	Coeffs []float64     `json:"coeffs"`
	CVMAPE float64       `json:"cv_mape"`
}

// runColdChild is the body of the cold pipeline process.
func runColdChild(arg string) int {
	seedText, names, _ := strings.Cut(arg, "/")
	seed, err := strconv.ParseUint(seedText, 10, 64)
	var wls []*workloads.Workload
	for _, n := range strings.Split(names, ",") {
		if err != nil {
			break
		}
		var w *workloads.Workload
		w, err = workloads.ByName(n)
		wls = append(wls, w)
	}
	if err == nil {
		var r *pipelineRun
		if r, err = runPipelineOnce(seed, wls, nil); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(coldResult{r.events, r.coeffs, r.cvMAPE})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: cold pipeline:", err)
		return 1
	}
	return 0
}

// coldPipeline runs one pipeline over wls in a fresh copy of this
// executable and returns the time from exec to exit with the run's
// result.
func coldPipeline(seed uint64, wls []*workloads.Workload) (time.Duration, *pipelineRun, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), coldEnv+"="+strconv.FormatUint(seed, 10)+"/"+strings.Join(names, ","))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	took := time.Since(start)
	if err != nil {
		return 0, nil, fmt.Errorf("cold pipeline process: %v: %s", err, stderr.Bytes())
	}
	var cr coldResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return 0, nil, fmt.Errorf("cold pipeline process output: %w", err)
	}
	return took, &pipelineRun{events: cr.Events, coeffs: cr.Coeffs, cvMAPE: cr.CVMAPE}, nil
}
