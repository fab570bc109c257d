// Package acquisition orchestrates the paper's data acquisition and
// post-processing stages end to end:
//
//	for every (workload, frequency): for every multiplexed event-set run:
//	    execute the workload on the simulated node under tracing
//	    (Score-P-style recorder + metric plugins) → event stream
//	    → phase profiles, folded as recorded (internal/phaseprofile)
//	    [→ trace archive, encoded only for a TraceSink]
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
	"context"
	"fmt"
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
	// TraceSink, when non-nil, receives every run's trace archive
	// (keyed by a descriptive name) — used by the trace-inspection
	// tooling and tests. Without a sink no archive is encoded: each
	// run's events are folded into phase profiles as they are recorded.
	TraceSink func(name string, data []byte)
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
	plan, err := pmu.PlanRuns(o.Events)
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
	lb := newLabels(o.Platform, wls)
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
			phases, err := recordRun(&o, sampleRateHz, exec, sensors, lb, w, f, set, seed, sc)
			if err != nil {
				return cellResult{}, fmt.Errorf("acquisition: %s @ %d MHz run %d: %w", w.Name, f, runIdx, err)
			}
			if o.TraceSink != nil {
				res.traces = append(res.traces, namedTrace{
					name: fmt.Sprintf("%s_%dMHz_run%d.trc", w.Name, f, runIdx),
					data: bytes.Clone(sc.archive.Bytes()),
				})
			}
			runProfiles = append(runProfiles, phases)
		}
		merged, err := phaseprofile.CombineRuns(runProfiles...)
		if err != nil {
			return cellResult{}, fmt.Errorf("acquisition: %s @ %d MHz: %w", w.Name, f, err)
		}
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
	// archive receives one run's trace when a TraceSink asks for it.
	archive bytes.Buffer
	// ticks and cores are one step's sample times and active cores,
	// which every plugin shares; values holds the step's plugin
	// blocks, each plugin's after the previous plugin's.
	ticks  []uint64
	cores  []int
	values []float64
	// sets holds what the worker's runs of each event set share.
	sets map[*pmu.EventSet]*setRun
}

// setRun is what every run of one event set shares on a campaign
// worker: the plugins, the definition table and a profile builder with
// each plugin's (metric, location) targets resolved. Every run of an
// event set defines the same locations and metrics in the same order,
// so the table keeps them and each run redefines only its regions; the
// next run resets the builder and keeps the targets. The plugins are
// built from the campaign's model, sensors and rate, and the locations
// from its platform, which a worker's runs share.
type setRun struct {
	plugins [3]metricplugin.Plugin
	defs    trace.Definitions
	// loc is the recorder's node location and coreLocs each hardware
	// core's; thrRef and freqRef are its sync metrics and refs[pi]
	// plugin pi's metrics, by index.
	loc             trace.Ref
	coreLocs        []trace.Ref
	thrRef, freqRef trace.Ref
	refs            [3][]trace.Ref
	b               *phaseprofile.Builder
	runs            [3]runFold
}

// newSetRun builds the plugins of the event set set's runs: power,
// voltage, then the PMC sampler, in the order lb.plugins names their
// noise streams. It defines the runs' locations, a node location then
// one per hardware core, and their metrics: the recorder's sync
// annotations first, then each plugin's metrics.
func newSetRun(o *Options, sensors []*power.Sensor, rateHz float64, set *pmu.EventSet, lb *labels) (*setRun, error) {
	apapi, err := metricplugin.NewApapiPlugin(set)
	if err != nil {
		return nil, err
	}
	powerPl, err := metricplugin.NewPowerPlugin(o.Model, sensors, rateHz)
	if err != nil {
		return nil, err
	}
	sr := &setRun{plugins: [...]metricplugin.Plugin{powerPl, &metricplugin.VoltagePlugin{}, apapi}}
	// The voltage reader and the PMC sampler are per-core instruments;
	// their streams are attributed to core locations and re-aggregated
	// during post-processing.
	sr.loc = sr.defs.AddLocation("master thread")
	for _, name := range lb.cores {
		sr.coreLocs = append(sr.coreLocs, sr.defs.AddLocation(name))
	}
	sr.thrRef = sr.defs.AddMetric(phaseprofile.MetricThreads, "threads", trace.MetricSync)
	sr.freqRef = sr.defs.AddMetric(phaseprofile.MetricFreq, "MHz", trace.MetricSync)
	for pi, pl := range sr.plugins {
		for _, spec := range pl.Metrics() {
			sr.refs[pi] = append(sr.refs[pi], sr.defs.AddMetric(spec.Name, spec.Unit, spec.Mode))
		}
	}
	return sr, nil
}

// labels are what every run of a campaign names alike: the hashes its
// noise streams are split off by, and its core locations' names. A
// campaign computes them once, not in every run.
type labels struct {
	exec    uint64    // the executor's stream, in every step
	steps   []uint64  // step si's stream
	plugins [3]uint64 // plugin pi's stream, in every step
	cores   []string  // hardware core c's location
}

// newLabels names the runs of a campaign over wls on p.
func newLabels(p *cpusim.Platform, wls []*workloads.Workload) *labels {
	lb := &labels{exec: rng.HashString("exec"), cores: make([]string, p.TotalCores())}
	nSteps := 0
	for _, w := range wls {
		nSteps = max(nSteps, len(w.ThreadSweep)*len(w.Phases))
	}
	lb.steps = make([]uint64, nSteps)
	for si := range lb.steps {
		lb.steps[si] = rng.HashString(fmt.Sprintf("step%d", si))
	}
	for pi := range lb.plugins {
		lb.plugins[pi] = rng.HashString(fmt.Sprintf("plugin%d", pi))
	}
	for c := range lb.cores {
		lb.cores[c] = fmt.Sprintf("core %d", c)
	}
	return lb
}

// phaseDurationS is the simulated duration of each workload phase at
// each thread step.
const phaseDurationS = 1

// sampleRateHz is the async metric plugins' sampling rate written to
// the trace.
const sampleRateHz = 20

// recordRun executes every (thread step × phase) of a workload at one
// frequency with one event set, its metric plugins sampling at rateHz,
// and returns the run's phase profiles.
// The recorder's own events go through Builder.Event. Each step's
// ticks and active cores are computed once and handed to every plugin,
// and each plugin's block of values is folded as it is gathered
// (runFold.sample); the Score-P-style archive is encoded into
// sc.archive only when a TraceSink asks for it.
func recordRun(o *Options, rateHz float64, exec *cpusim.Executor, sensors []*power.Sensor, lb *labels,
	wl *workloads.Workload, freqMHz int, set *pmu.EventSet, seed *rng.Rand, sc *scratch) ([]*phaseprofile.Phase, error) {

	sr := sc.sets[set]
	if sr == nil {
		var err error
		if sr, err = newSetRun(o, sensors, rateHz, set, lb); err != nil {
			return nil, err
		}
		if sc.sets == nil {
			sc.sets = make(map[*pmu.EventSet]*setRun)
		}
		sc.sets[set] = sr
	}
	loc, coreLocs := sr.loc, sr.coreLocs

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

	defs := &sr.defs
	defs.Regions = defs.Regions[:0]
	var steps []step
	for _, n := range sweep {
		for pi, ph := range wl.Phases {
			reg := defs.AddRegion(fmt.Sprintf("%s@%d", ph.Name, n))
			steps = append(steps, step{phaseIdx: pi, threads: n, region: reg})
		}
	}

	// The recorder's own events go to the profile builder, and to an
	// archive encoded from the run's definitions when a sink wants one.
	// Both check them the same way. Plugin blocks fold through each
	// plugin's runFold. The event set's previous run on this worker
	// defined the same metrics, and the platform's locations, in the
	// same order, so Reset keeps the targets it resolved.
	resolved := false
	if sr.b == nil {
		sr.b = phaseprofile.NewBuilder(defs, wl.Name)
	} else {
		resolved = sr.b.Reset(defs, wl.Name)
	}
	b, runs := sr.b, sr.runs[:]
	for pi := 0; !resolved && pi < len(runs); pi++ {
		var err error
		if runs[pi], err = newRunFold(b, sr.plugins[pi], sr.refs[pi], loc, coreLocs); err != nil {
			return nil, err
		}
	}
	var tw *trace.Writer
	if o.TraceSink != nil {
		sc.archive.Reset()
		tw = trace.NewWriter(&sc.archive, defs)
	}
	emit := func(ev trace.Event) error {
		if err := b.Event(ev); err != nil {
			return err
		}
		if tw != nil {
			return tw.WriteEvent(ev)
		}
		return nil
	}

	// Execute the steps back to back on a simulated timeline.
	iv := &metricplugin.Interval{Platform: o.Platform}
	now := uint64(0)
	for si, st := range steps {
		start, end := now, now+uint64(phaseDurationS*1e9)
		stepSeed := seed.Split(lb.steps[si])

		act, err := exec.Execute(cpusim.RunConfig{
			Workload:  wl,
			PhaseIdx:  st.phaseIdx,
			FreqMHz:   freqMHz,
			Threads:   st.threads,
			DurationS: phaseDurationS,
		}, stepSeed.Split(lb.exec))
		if err != nil {
			return nil, err
		}

		if err := emit(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: start, Region: st.region}); err != nil {
			return nil, err
		}
		if err := emit(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: start, Metric: sr.thrRef, Value: float64(st.threads)}); err != nil {
			return nil, err
		}
		if err := emit(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: start, Metric: sr.freqRef, Value: float64(freqMHz)}); err != nil {
			return nil, err
		}

		// The step's ticks and cores, shared by every plugin, are
		// checked once: the blocks fold without a per-sample check.
		iv.StartNs, iv.EndNs, iv.Activity = start, end, act
		iv.Ticks = metricplugin.Ticks(sc.ticks[:0], start, end, rateHz)
		iv.Cores = metricplugin.ActiveCores(sc.cores[:0], o.Platform, act)
		sc.ticks, sc.cores = iv.Ticks, iv.Cores
		if err := checkStep(iv, len(coreLocs)); err != nil {
			return nil, err
		}

		// Gather every plugin's block into the reused buffer and fold
		// it into the step's phase. The plugins' metrics are of
		// distinct kinds (power channels, voltage, PMC events), so each
		// power channel's or cell's values come from one plugin, in
		// tick order; the phase's flush fixes the order across them. So
		// every float addition happens as it would over the archive.
		values := sc.values[:0]
		for pi := range runs {
			iv.Rand = stepSeed.Split(lb.plugins[pi])
			if values, err = runs[pi].sample(b, values, iv); err != nil {
				return nil, err
			}
		}
		sc.values = values

		if tw != nil {
			if err := writeStep(tw, runs, values, iv, loc, coreLocs); err != nil {
				return nil, err
			}
		}
		if err := emit(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: end, Region: st.region}); err != nil {
			return nil, err
		}
		now = end
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return nil, err
		}
	}
	return b.Phases()
}

// checkStep checks what the blocks of a step [iv.StartNs, iv.EndNs]
// are folded by, before any is: its ticks ascend within the step, as
// the Builder's order check requires of the archive it would write,
// and its cores are below nCores, so every core has a location.
func checkStep(iv *metricplugin.Interval, nCores int) error {
	last := iv.StartNs
	for _, t := range iv.Ticks {
		if t < last || t > iv.EndNs {
			return fmt.Errorf("acquisition: tick at %d ns out of order in step [%d, %d] ns", t, iv.StartNs, iv.EndNs)
		}
		last = t
	}
	for _, c := range iv.Cores {
		if uint(c) >= uint(nCores) {
			return fmt.Errorf("acquisition: active core %d of a %d-core platform", c, nCores)
		}
	}
	return nil
}

// runFold is one plugin of a run. Its table holds the
// phaseprofile.Target of every (metric index, location) pair the
// plugin can write, resolved once per run: entry mi*width + c, where a
// per-core plugin has one location per hardware core c and a
// node-level plugin has one, c = 0.
type runFold struct {
	plugin  metricplugin.Plugin
	refs    []trace.Ref // the plugin's metrics, by index
	perCore bool
	width   int
	targets []phaseprofile.Target
}

// newRunFold resolves each of pl's metrics (refs, by metric index)
// at the node location or, for a per-core plugin, at every core
// location.
func newRunFold(b *phaseprofile.Builder, pl metricplugin.Plugin, refs []trace.Ref, node trace.Ref, cores []trace.Ref) (runFold, error) {
	locs := []trace.Ref{node}
	if pl.PerCore() {
		locs = cores
	}
	f := runFold{plugin: pl, refs: refs, perCore: pl.PerCore(), width: len(locs)}
	f.targets = make([]phaseprofile.Target, 0, len(refs)*len(locs))
	for _, ref := range refs {
		for _, loc := range locs {
			t, err := b.Resolve(ref, loc)
			if err != nil {
				return runFold{}, err
			}
			f.targets = append(f.targets, t)
		}
	}
	return f, nil
}

// locations is the number of locations the plugin writes for the step
// iv: its active cores, or the node.
func (f *runFold) locations(iv *metricplugin.Interval) int {
	if f.perCore {
		return len(iv.Cores)
	}
	return 1
}

// sample appends the plugin's block for the step iv to values and
// folds it into b: each (metric, location) pair's values, one per tick
// at a stride of metrics × locations, in one AddStrided. iv's ticks
// and cores must have passed checkStep. A block that is not one value
// per tick, metric and location is an error, and folds nothing.
func (f *runFold) sample(b *phaseprofile.Builder, values []float64, iv *metricplugin.Interval) ([]float64, error) {
	off := len(values)
	values, err := f.plugin.Sample(values, iv)
	if err != nil {
		return values, err
	}
	block, nLocs := values[off:], f.locations(iv)
	stride := len(f.refs) * nLocs
	if len(block) != len(iv.Ticks)*stride {
		return values, fmt.Errorf("acquisition: plugin %s wrote %d values, want %d ticks × %d metrics × %d locations",
			f.plugin.Name(), len(block), len(iv.Ticks), len(f.refs), nLocs)
	}
	if len(block) == 0 {
		return values, nil
	}
	for mi := range f.refs {
		row := f.targets[mi*f.width : (mi+1)*f.width]
		for l := 0; l < nLocs; l++ {
			c := 0
			if f.perCore {
				c = iv.Cores[l]
			}
			b.AddStrided(row[c], block[mi*nLocs+l:], stride)
		}
	}
	return values, nil
}

// writeStep writes a step's plugin blocks, gathered in values by
// runFold.sample in runs' order, to tw in the archive's chronological
// order: tick by tick, then plugin by plugin, then by metric and
// location.
func writeStep(tw *trace.Writer, runs []runFold, values []float64, iv *metricplugin.Interval, node trace.Ref, cores []trace.Ref) error {
	for ti, t := range iv.Ticks {
		block := values
		for fi := range runs {
			f := &runs[fi]
			nLocs := f.locations(iv)
			stride := len(f.refs) * nLocs
			row := block[ti*stride : (ti+1)*stride]
			block = block[len(iv.Ticks)*stride:]
			for mi, ref := range f.refs {
				for l := 0; l < nLocs; l++ {
					loc := node
					if f.perCore {
						loc = cores[iv.Cores[l]]
					}
					if err := tw.WriteEvent(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: t, Metric: ref, Value: row[mi*nLocs+l]}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// rowsFromPhases aggregates merged phase profiles into dataset rows:
// one row per thread count, with multi-phase workloads averaged by
// phase duration. A thread count's phases are summed in recording
// order; a workload has one or two phases, and two terms sum to the
// same bits in either order.
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
