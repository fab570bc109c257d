// Package acquisition orchestrates the paper's data acquisition and
// post-processing stages end to end:
//
//	for every (workload, frequency): for every multiplexed event-set run:
//	    execute the workload on the simulated node under tracing
//	    (Score-P-style recorder + metric plugins) → trace archive
//	→ phase profiles (internal/phaseprofile)
//	→ combined across runs
//	→ regression dataset rows (one per workload/frequency/thread-count)
//
// "Multiple runs of the same application are required due to the
// hardware limitation on simultaneous recording of multiple PAPI
// counters. The operating frequency f_clk is always fixed to one
// particular value during one particular execution of a workload."
package acquisition

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/metricplugin"
	"pmcpower/internal/obs"
	"pmcpower/internal/parallel"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

// Options configures an acquisition campaign.
type Options struct {
	// Platform defaults to cpusim.HaswellEP().
	Platform *cpusim.Platform
	// Model is the ground-truth power model; defaults to
	// power.DefaultModel().
	Model *power.Model
	// Seed drives every stochastic aspect of the campaign.
	Seed uint64
	// Events are the PMC events to collect; defaults to all presets.
	Events []pmu.EventID
	// PhaseDurationS is the simulated duration of each workload phase
	// at each thread step. Default 1 s.
	PhaseDurationS float64
	// SampleRateHz is the async metric plugin sampling rate written to
	// the trace. Default 20 Hz.
	SampleRateHz float64
	// TraceSink, when non-nil, receives every produced trace archive
	// (keyed by a descriptive name) before post-processing — used by
	// the trace-inspection tooling and tests.
	TraceSink func(name string, data []byte)
	// SharedPlanner uses the native-event-aware multiplex planner
	// (pmu.PlanRunsShared), which co-schedules presets that share
	// native registers and therefore needs fewer runs per workload.
	// Off by default: the canonical experiments use the conservative
	// per-preset plan.
	SharedPlanner bool
	// Parallelism bounds the workers running the independent
	// (workload, frequency) campaign cells: 0 = GOMAXPROCS,
	// 1 = serial. Every cell's noise streams are derived from stable
	// (workload, frequency, run) labels, and rows and trace archives
	// are reduced in cell order, so the dataset is bit-identical at
	// every parallelism level.
	Parallelism int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Platform == nil {
		out.Platform = cpusim.HaswellEP()
	}
	if out.Model == nil {
		out.Model = power.DefaultModel()
	}
	if len(out.Events) == 0 {
		out.Events = pmu.AllIDs()
	}
	if out.PhaseDurationS == 0 {
		out.PhaseDurationS = 1.0
	}
	if out.SampleRateHz == 0 {
		out.SampleRateHz = 20
	}
	return out
}

// Row is one experiment of the regression dataset: a (workload,
// frequency, thread count) combination with its merged measurements,
// matching the granularity of the paper's Figure 5 data points
// ("a combination of workload, core frequency, and for the synthetic
// workload kernels, thread count").
type Row struct {
	Workload string
	Class    workloads.Class
	FreqMHz  int
	Threads  int

	// PowerW is the measured average node power, averaged over all
	// multiplexed runs of the experiment.
	PowerW float64
	// VoltageV is the measured average core voltage.
	VoltageV float64
	// Rates are average PMC event rates in events/second, merged from
	// the multiplexed runs.
	Rates map[pmu.EventID]float64
}

// CyclesPerSec returns the TOT_CYC rate of the row.
func (r *Row) CyclesPerSec() float64 {
	return r.Rates[pmu.MustByName("TOT_CYC").ID]
}

// RatePerCycle returns the event's rate per CPU clock cycle at the
// fixed operating frequency (events/s divided by f_clk) — the E_n of
// the paper's Equation 1 ("since the value of the PMC events are
// related to the operating frequency, the PMC event rate, i.e., the
// number of events per cpu cycle, is used").
//
// Counters are node aggregates, so E_n of TOT_CYC itself is the
// average number of unhalted cores — the utilization signal.
func (r *Row) RatePerCycle(id pmu.EventID) float64 {
	fHz := float64(r.FreqMHz) * 1e6
	if fHz == 0 {
		return 0
	}
	return r.Rates[id] / fHz
}

// Dataset is the output of an acquisition campaign.
type Dataset struct {
	Platform *cpusim.Platform
	Rows     []*Row
}

// Acquire runs the full campaign over the given workloads and
// frequencies and returns the merged dataset. Excluded workloads are
// skipped (mirroring the paper's exclusions).
func Acquire(opts Options, wls []*workloads.Workload, freqsMHz []int) (*Dataset, error) {
	return AcquireCtx(context.Background(), opts, wls, freqsMHz)
}

// AcquireCtx is Acquire under a caller context: cancellation stops
// the campaign between cells, and when the context carries an
// obs.Tracer the campaign emits an "acquire" span with one
// "acquire.cell" child per (workload, frequency) pair. Tracing writes
// timing to a side buffer only — the dataset stays bit-identical with
// or without a tracer attached.
func AcquireCtx(ctx context.Context, opts Options, wls []*workloads.Workload, freqsMHz []int) (*Dataset, error) {
	o := opts.withDefaults()
	if len(wls) == 0 || len(freqsMHz) == 0 {
		return nil, fmt.Errorf("acquisition: need at least one workload and one frequency")
	}
	planFn := pmu.PlanRuns
	if o.SharedPlanner {
		planFn = pmu.PlanRunsShared
	}
	plan, err := planFn(o.Events)
	if err != nil {
		return nil, err
	}
	exec := cpusim.NewExecutor(o.Platform)
	base := rng.New(o.Seed)
	// One independently calibrated sensor per socket, as on the real
	// system.
	sensors := make([]*power.Sensor, o.Platform.Sockets)
	for si := range sensors {
		sensors[si] = power.NewSensor(base.Split(rng.HashString(fmt.Sprintf("sensor-calibration-%d", si))))
	}

	// One campaign cell per (workload, frequency) pair — the paper's
	// embarrassingly parallel outer loop. P-states are validated up
	// front so an invalid frequency fails before any work is spawned,
	// exactly as the serial loop's first iteration would.
	type cell struct {
		w *workloads.Workload
		f int
	}
	var cells []cell
	for _, w := range wls {
		if w.Excluded {
			continue
		}
		for _, f := range freqsMHz {
			if _, err := o.Platform.PStateFor(f); err != nil {
				return nil, err
			}
			cells = append(cells, cell{w: w, f: f})
		}
	}

	type namedTrace struct {
		name string
		data []byte
	}
	type cellResult struct {
		rows   []*Row
		traces []namedTrace
	}
	ctx, acqSpan := obs.FromContext(ctx).StartSpan(ctx, "acquire",
		obs.Int("cells", len(cells)), obs.Int("frequencies", len(freqsMHz)), obs.Int("events", len(o.Events)))
	defer acqSpan.End()

	// Every stochastic input of a cell comes from rng streams split
	// off the campaign seed by a stable (workload, frequency, run)
	// label, so a cell's output is independent of which worker runs it
	// and of how many cells run concurrently. Each worker owns one
	// scratch, reused by every run of every cell it executes.
	newScratch := func(int) *scratch { return &scratch{} }
	results, err := parallel.MapWorkers(ctx, len(cells), o.Parallelism, newScratch, func(ctx context.Context, sc *scratch, ci int) (cellResult, error) {
		w, f := cells[ci].w, cells[ci].f
		_, cellSpan := obs.FromContext(ctx).StartSpan(ctx, "acquire.cell",
			obs.String("workload", w.Name), obs.Int("freq_mhz", f))
		defer cellSpan.End()
		var res cellResult
		runProfiles := make([][]*phaseprofile.Phase, 0, len(plan))
		for runIdx, set := range plan {
			seed := base.Split(rng.HashString(fmt.Sprintf("%s|%d|run%d", w.Name, f, runIdx)))
			if err := recordRun(&o, exec, sensors, w, f, set, seed, sc); err != nil {
				return cellResult{}, fmt.Errorf("acquisition: %s @ %d MHz run %d: %w", w.Name, f, runIdx, err)
			}
			if o.TraceSink != nil {
				res.traces = append(res.traces, namedTrace{
					name: fmt.Sprintf("%s_%dMHz_run%d.trc", w.Name, f, runIdx),
					data: bytes.Clone(sc.archive.Bytes()),
				})
			}
			phases, err := phaseprofile.FromTrace(&sc.archive, w.Name)
			if err != nil {
				return cellResult{}, fmt.Errorf("acquisition: post-processing %s @ %d MHz run %d: %w", w.Name, f, runIdx, err)
			}
			runProfiles = append(runProfiles, phases)
		}
		merged := phaseprofile.CombineRuns(runProfiles...)
		rows, err := rowsFromPhases(w, f, merged)
		if err != nil {
			return cellResult{}, err
		}
		res.rows = rows
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	ds := &Dataset{Platform: o.Platform}
	// Reduce in cell order: the sink sees archives in the exact
	// sequence the serial campaign would have produced them, and row
	// collection order never depends on scheduling.
	for _, res := range results {
		for _, tr := range res.traces {
			o.TraceSink(tr.name, tr.data)
		}
		ds.Rows = append(ds.Rows, res.rows...)
	}
	sortRows(ds.Rows)
	return ds, nil
}

// scratch is one campaign worker's reusable memory. Every byte a run
// reads from it was written earlier by that same run, so results do
// not depend on which worker ran a cell.
type scratch struct {
	// archive receives one run's trace before post-processing.
	archive bytes.Buffer
	// merged holds one step's plugin samples in chronological order.
	merged []timedSample
}

// timedSample is one plugin sample bound to its trace location and
// metric.
type timedSample struct {
	t   uint64
	loc trace.Ref
	ref trace.Ref
	v   float64
}

// recordRun executes every (thread step × phase) of a workload at one
// frequency with one event set, writing the Score-P-style trace to
// sc.archive.
func recordRun(o *Options, exec *cpusim.Executor, sensors []*power.Sensor,
	wl *workloads.Workload, freqMHz int, set *pmu.EventSet, seed *rng.Rand, sc *scratch) error {

	sc.archive.Reset()
	tw := trace.NewWriter(&sc.archive)
	loc, err := tw.DefineLocation("master thread")
	if err != nil {
		return err
	}
	// One location per hardware core: the voltage reader and the PMC
	// sampler are per-core instruments; their streams are attributed
	// to core locations and re-aggregated during post-processing.
	coreLocs := make([]trace.Ref, exec.Platform().TotalCores())
	for c := range coreLocs {
		coreLocs[c], err = tw.DefineLocation(fmt.Sprintf("core %d", c))
		if err != nil {
			return err
		}
	}

	// Region per (phase, thread count).
	type step struct {
		phaseIdx int
		threads  int
		region   trace.Ref
	}
	// Thread sweeps are defined for the largest platform; smaller
	// platforms (the embedded ARM configuration) cap each entry at the
	// available cores and deduplicate.
	cores := exec.Platform().TotalCores()
	var sweep []int
	seenN := map[int]bool{}
	for _, n := range wl.ThreadSweep {
		if n > cores {
			n = cores
		}
		if !seenN[n] {
			seenN[n] = true
			sweep = append(sweep, n)
		}
	}

	var steps []step
	for _, n := range sweep {
		for pi, ph := range wl.Phases {
			reg, err := tw.DefineRegion(fmt.Sprintf("%s@%d", ph.Name, n))
			if err != nil {
				return err
			}
			steps = append(steps, step{phaseIdx: pi, threads: n, region: reg})
		}
	}

	// Metric definitions: recorder-provided sync annotations first,
	// then one metric per plugin-provided metric.
	thrRef, err := tw.DefineMetric(phaseprofile.MetricThreads, "threads", trace.MetricSync)
	if err != nil {
		return err
	}
	freqRef, err := tw.DefineMetric(phaseprofile.MetricFreq, "MHz", trace.MetricSync)
	if err != nil {
		return err
	}

	apapi, err := metricplugin.NewApapiPlugin(set, o.SampleRateHz)
	if err != nil {
		return err
	}
	powerPl, err := metricplugin.NewPowerPlugin(o.Model, sensors, o.SampleRateHz)
	if err != nil {
		return err
	}
	voltPl, err := metricplugin.NewVoltagePlugin(o.SampleRateHz)
	if err != nil {
		return err
	}
	plugins := []metricplugin.Plugin{powerPl, voltPl, apapi}
	type pluginMetrics struct {
		plugin metricplugin.Plugin
		refs   []trace.Ref
	}
	var pms []pluginMetrics
	for _, pl := range plugins {
		pm := pluginMetrics{plugin: pl}
		for _, spec := range pl.Metrics() {
			ref, err := tw.DefineMetric(spec.Name, spec.Unit, spec.Mode)
			if err != nil {
				return err
			}
			pm.refs = append(pm.refs, ref)
		}
		pms = append(pms, pm)
	}

	// Execute the steps back to back on a simulated timeline.
	now := uint64(0)
	for si, st := range steps {
		durNs := uint64(o.PhaseDurationS * 1e9)
		start, end := now, now+durNs
		stepSeed := seed.Split(rng.HashString(fmt.Sprintf("step%d", si)))

		act, err := exec.Execute(cpusim.RunConfig{
			Workload:  wl,
			PhaseIdx:  st.phaseIdx,
			FreqMHz:   freqMHz,
			Threads:   st.threads,
			DurationS: o.PhaseDurationS,
		}, stepSeed.Split(rng.HashString("exec")))
		if err != nil {
			return err
		}

		if err := tw.WriteEvent(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: start, Region: st.region}); err != nil {
			return err
		}
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: start, Metric: thrRef, Value: float64(st.threads)}); err != nil {
			return err
		}
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: start, Metric: freqRef, Value: float64(freqMHz)}); err != nil {
			return err
		}

		// Gather all plugin samples for the interval and write them in
		// chronological order.
		iv := &metricplugin.Interval{
			StartNs:  start,
			EndNs:    end,
			Activity: act,
			Platform: o.Platform,
		}
		all := sc.merged[:0]
		for pi, pm := range pms {
			iv.Rand = stepSeed.Split(rng.HashString(fmt.Sprintf("plugin%d", pi)))
			samples, err := pm.plugin.Sample(iv)
			if err != nil {
				return err
			}
			for _, s := range samples {
				sampleLoc := loc
				if s.Core != metricplugin.NodeLevel {
					if s.Core < 0 || s.Core >= len(coreLocs) {
						return fmt.Errorf("acquisition: plugin %s emitted sample for invalid core %d", pm.plugin.Name(), s.Core)
					}
					sampleLoc = coreLocs[s.Core]
				}
				all = append(all, timedSample{t: s.TimeNs, loc: sampleLoc, ref: pm.refs[s.MetricIndex], v: s.Value})
			}
		}
		sc.merged = all
		slices.SortStableFunc(all, func(a, b timedSample) int { return cmp.Compare(a.t, b.t) })
		for _, s := range all {
			if err := tw.WriteEvent(trace.Event{Kind: trace.KindMetric, Location: s.loc, TimeNs: s.t, Metric: s.ref, Value: s.v}); err != nil {
				return err
			}
		}
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: end, Region: st.region}); err != nil {
			return err
		}
		now = end
	}
	return tw.Close()
}

// rowsFromPhases aggregates merged phase profiles into dataset rows:
// one row per thread count, with multi-phase workloads averaged by
// phase duration.
func rowsFromPhases(wl *workloads.Workload, freqMHz int, phases []*phaseprofile.Phase) ([]*Row, error) {
	byThreads := make(map[int][]*phaseprofile.Phase)
	for _, ph := range phases {
		if ph.FreqMHz != freqMHz {
			return nil, fmt.Errorf("acquisition: phase %q has frequency %d, expected %d", ph.Region, ph.FreqMHz, freqMHz)
		}
		byThreads[ph.Threads] = append(byThreads[ph.Threads], ph)
	}
	var rows []*Row
	for threads, group := range byThreads {
		row := &Row{
			Workload: wl.Name,
			Class:    wl.Class,
			FreqMHz:  freqMHz,
			Threads:  threads,
			Rates:    make(map[pmu.EventID]float64),
		}
		var totalS float64
		for _, ph := range group {
			d := ph.DurationS()
			totalS += d
			row.PowerW += ph.PowerW * d
			row.VoltageV += ph.VoltageV * d
			for id, r := range ph.Rates {
				row.Rates[id] += r * d
			}
		}
		if totalS == 0 {
			return nil, fmt.Errorf("acquisition: zero total duration for %s@%d threads", wl.Name, threads)
		}
		row.PowerW /= totalS
		row.VoltageV /= totalS
		for id := range row.Rates {
			row.Rates[id] /= totalS
		}
		rows = append(rows, row)
	}
	sortRows(rows)
	return rows, nil
}

func sortRows(rows []*Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.FreqMHz != b.FreqMHz {
			return a.FreqMHz < b.FreqMHz
		}
		return a.Threads < b.Threads
	})
}

// Filter returns the subset of rows matching pred, preserving order.
func (d *Dataset) Filter(pred func(*Row) bool) *Dataset {
	out := &Dataset{Platform: d.Platform}
	for _, r := range d.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// ByClass returns the subset of rows of one workload class.
func (d *Dataset) ByClass(c workloads.Class) *Dataset {
	return d.Filter(func(r *Row) bool { return r.Class == c })
}

// AtFrequency returns the subset of rows at one frequency.
func (d *Dataset) AtFrequency(freqMHz int) *Dataset {
	return d.Filter(func(r *Row) bool { return r.FreqMHz == freqMHz })
}

// Workloads returns the distinct workload names in the dataset, sorted.
func (d *Dataset) Workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range d.Rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}
