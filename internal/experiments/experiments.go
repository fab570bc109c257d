// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV/V) plus the ablations and baseline
// comparisons called out in DESIGN.md. Each experiment is a method on
// a shared Context that holds the paper's pipeline, run once, so cmds
// and tests all reproduce identical numbers.
//
// Experiment index (ids match DESIGN.md):
//
//	E1  Table I    — counter selection on all workloads
//	E2  Figure 2   — R²/Adj.R² progression during selection
//	E3  Table II   — 10-fold cross-validation summary
//	E4  Figure 3   — per-workload MAPE across DVFS states
//	E5  Figure 4   — the four train/test scenarios
//	E6  Figure 5a  — actual vs estimated power, scenario 2
//	E7  Figure 5b  — actual vs estimated power, scenario 3
//	E8  Table III  — PCC of the selected counters with power
//	E9  Figure 6   — PCC of all 54 counters with power
//	E10 Table IV   — counter selection on synthetic workloads only
//	E11 §IV-A      — VIF explosion when extending the selection
//	E12 Ablations  — rate normalization, HCSE choice, cycle-counter init
//	E13 Baselines  — Rodrigues subset, cycles-only, per-frequency linear
//	E14 Strategies — alternative counter-selection algorithms (§VI)
//	E15 Transform  — Walker stage-2 transformation search (§III-B)
//	E16 Stability  — bootstrap coefficient distributions (§V)
//	E17 Cross-arch — identical workflow on the embedded ARM platform (§VI)
//
// plus the Breusch–Pagan heteroscedasticity test that formally backs
// the HC3 choice.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// Config holds the experiment parameters a caller chooses.
type Config struct {
	// Seed drives all acquisition noise.
	Seed uint64
	// Parallelism bounds the workers used inside each experiment
	// (acquisition cells, candidate fits, VIF auxiliary regressions,
	// CV folds) and by the RunAllCtx experiment fan-out: 0 = GOMAXPROCS,
	// 1 = serial. Every experiment's numbers are bit-identical at
	// every level — enforced by the equivalence tests.
	Parallelism int
}

// DefaultConfig returns the canonical parameters used by all tables,
// figures and benchmarks in EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: 42}
}

// The paper's fixed method. freqsMHz are the DVFS states of the
// evaluation ("5 distinct operating frequencies between 1200 and 2600
// MHz").
var freqsMHz = []int{1200, 1600, 2000, 2400, 2600}

const (
	// selectionFreqMHz is the frequency at which counter selection
	// runs ("we run all roco2 and SPEC benchmarks at a fixed operating
	// frequency of 2400 MHz with all available counters").
	selectionFreqMHz = 2400
	// numEvents is the size of the selected counter set.
	numEvents = 6
	// cvFolds and cvSeed parameterize cross-validation.
	cvFolds = 10
	cvSeed  = 7
	// scenario1Seed fixes the random four-workload draw of scenario 1.
	scenario1Seed = 34
)

// Context holds the paper's shared pipeline, which NewContext runs
// once: the all-counter selection campaign, Algorithm 1's steps, the
// evaluation campaign over the five DVFS states and its 10-fold cross
// validation. Experiments only read these fields, so a Context is safe
// for concurrent use.
type Context struct {
	cfg Config

	selectionDS *acquisition.Dataset // all counters, selection frequency
	steps       []core.SelectionStep
	selected    []pmu.EventID        // the events of steps, in selection order
	fullDS      *acquisition.Dataset // evaluation counters, all frequencies
	cv          *core.CVResult

	// fullAllDS is all counters over all frequencies. Only E14 reads
	// it, so it is acquired on first use.
	fullAllDS func() (*acquisition.Dataset, error)
}

// NewContext runs the shared pipeline under ctx, in order: the
// acquisition of all counters at the selection frequency, Algorithm 1,
// the acquisition of the evaluation counters over all five DVFS states,
// and the canonical 10-fold cross validation. When ctx carries an
// obs.Tracer, each stage records its spans (acquire, selection, cv)
// beneath the caller's.
func NewContext(ctx context.Context, cfg Config) (*Context, error) {
	c := &Context{cfg: cfg}
	opts := acquisition.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism}
	var err error
	if c.selectionDS, err = acquisition.AcquireCtx(ctx, opts, workloads.Active(), []int{selectionFreqMHz}); err != nil {
		return nil, fmt.Errorf("experiments: selection acquisition: %w", err)
	}
	if c.steps, err = core.SelectEventsCtx(ctx, c.selectionDS.Rows, core.SelectOptions{Count: numEvents, Parallelism: cfg.Parallelism}); err != nil {
		return nil, fmt.Errorf("experiments: counter selection: %w", err)
	}
	c.selected = core.Events(c.steps)
	evalOpts := opts
	evalOpts.Events = evaluationEvents(c.selected)
	if c.fullDS, err = acquisition.AcquireCtx(ctx, evalOpts, workloads.Active(), freqsMHz); err != nil {
		return nil, fmt.Errorf("experiments: full acquisition: %w", err)
	}
	if c.cv, err = core.CrossValidateCtx(ctx, c.fullDS.Rows, c.selected, cvFolds, cvSeed, cfg.Parallelism); err != nil {
		return nil, fmt.Errorf("experiments: cross validation: %w", err)
	}
	c.fullAllDS = sync.OnceValues(func() (*acquisition.Dataset, error) {
		ds, err := acquisition.Acquire(opts, workloads.Active(), freqsMHz)
		if err != nil {
			return nil, fmt.Errorf("experiments: all-counter acquisition: %w", err)
		}
		return ds, nil
	})
	return c, nil
}

// evaluationEvents returns the counters acquired in the full campaign:
// the selected set plus the fixed counters and the events the
// baselines need.
func evaluationEvents(selected []pmu.EventID) []pmu.EventID {
	want := map[pmu.EventID]bool{}
	for _, id := range selected {
		want[id] = true
	}
	for _, name := range []string{"TOT_CYC", "TOT_INS", "REF_CYC", "LST_INS", "L1_DCM", "RES_STL"} {
		want[pmu.MustByName(name).ID] = true
	}
	var out []pmu.EventID
	for _, id := range pmu.AllIDs() {
		if want[id] {
			out = append(out, id)
		}
	}
	return out
}

// --- E1 / E10: Tables I and IV -------------------------------------

// SelectionRow is one row of Table I or Table IV.
type SelectionRow struct {
	Counter string
	R2      float64
	AdjR2   float64
	MeanVIF float64 // NaN for the first row ("n/a")
}

func rowsFromSteps(steps []core.SelectionStep) []SelectionRow {
	out := make([]SelectionRow, len(steps))
	for i, s := range steps {
		out[i] = SelectionRow{
			Counter: pmu.Lookup(s.Event).Short,
			R2:      s.R2,
			AdjR2:   s.AdjR2,
			MeanVIF: s.MeanVIF,
		}
	}
	return out
}

// TableI reproduces Table I: the counters selected by Algorithm 1 on
// all workloads, in selection order, with R², Adj.R² and mean VIF.
func (c *Context) TableI() []SelectionRow {
	return rowsFromSteps(c.steps)
}

// TableIV reproduces Table IV: counter selection performed on the
// synthetic (roco2) workloads only.
func (c *Context) TableIV() ([]SelectionRow, error) {
	syn := c.selectionDS.ByClass(workloads.Synthetic)
	steps, err := core.SelectEvents(syn.Rows, core.SelectOptions{Count: numEvents, Parallelism: c.cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	return rowsFromSteps(steps), nil
}

// --- E2: Figure 2 ----------------------------------------------------

// Fig2Point is one point of Figure 2: model quality after adding the
// n-th counter.
type Fig2Point struct {
	NumCounters int
	Counter     string
	R2          float64
	AdjR2       float64
}

// Fig2 reproduces Figure 2: the R² and Adj.R² trajectory of the greedy
// selection.
func (c *Context) Fig2() []Fig2Point {
	out := make([]Fig2Point, len(c.steps))
	for i, s := range c.steps {
		out[i] = Fig2Point{
			NumCounters: i + 1,
			Counter:     pmu.Lookup(s.Event).Short,
			R2:          s.R2,
			AdjR2:       s.AdjR2,
		}
	}
	return out
}

// --- E3: Table II ----------------------------------------------------

// TableII holds the 10-fold cross-validation summary (min/max/mean of
// per-fold R², Adj.R² and MAPE).
type TableII struct {
	R2    stats.Summary
	AdjR2 stats.Summary
	MAPE  stats.Summary
	// SkippedObs counts held-out observations excluded from the MAPE
	// summary for near-zero actual power; zero on healthy datasets.
	SkippedObs int
}

// TableIIResult reproduces Table II.
func (c *Context) TableIIResult() *TableII {
	return &TableII{
		R2:         c.cv.R2Summary(),
		AdjR2:      c.cv.AdjR2Summary(),
		MAPE:       c.cv.MAPESummary(),
		SkippedObs: c.cv.SkippedObservations(),
	}
}

// --- E4: Figure 3 ----------------------------------------------------

// Fig3Bar is one bar of Figure 3: a workload's MAPE across all DVFS
// states, from the out-of-fold CV predictions.
type Fig3Bar struct {
	Workload string
	Class    workloads.Class
	MAPE     float64
}

// Fig3 reproduces Figure 3: the per-workload MAPE across all DVFS
// states for the 16 evaluated workloads (all 10 SPEC applications plus
// the six roco2 kernels the paper shows).
func (c *Context) Fig3() ([]Fig3Bar, error) {
	perWL := c.cv.PerWorkloadMAPE()

	// The paper's figure shows 16 workloads: the SPEC applications and
	// a subset of the synthetic kernels.
	shownSynthetic := map[string]bool{
		"compute": true, "sqrt": true, "sinus": true,
		"matmul": true, "memory_read": true, "idle": true,
	}
	var out []Fig3Bar
	for _, w := range workloads.Active() {
		if w.Class == workloads.Synthetic && !shownSynthetic[w.Name] {
			continue
		}
		mape, ok := perWL[w.Name]
		if !ok {
			return nil, fmt.Errorf("experiments: no CV predictions for workload %s", w.Name)
		}
		out = append(out, Fig3Bar{Workload: w.Name, Class: w.Class, MAPE: mape})
	}
	return out, nil
}

// --- E5: Figure 4 ----------------------------------------------------

// Fig4Bar is one bar of Figure 4: a scenario's MAPE.
type Fig4Bar struct {
	Scenario int
	Name     string
	MAPE     float64
	// Skipped counts test observations excluded from MAPE for
	// near-zero actual power.
	Skipped int
}

// Fig4 reproduces Figure 4: the MAPE of the paper's four train/test
// scenarios on the full dataset with the canonical seeds. Scenario 3,
// 10-fold CV over all experiments, is the context's cross validation.
func (c *Context) Fig4() ([]Fig4Bar, error) {
	s1, err := core.Scenario1(c.fullDS, c.selected, scenario1Seed)
	if err != nil {
		return nil, err
	}
	s2, err := core.Scenario2(c.fullDS, c.selected)
	if err != nil {
		return nil, err
	}
	s4, err := core.Scenario4(c.fullDS, c.selected, cvSeed, c.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return []Fig4Bar{
		{Scenario: 1, Name: s1.Name, MAPE: s1.MAPE, Skipped: s1.Skipped},
		{Scenario: 2, Name: s2.Name, MAPE: s2.MAPE, Skipped: s2.Skipped},
		{Scenario: 3, Name: "scenario 3: 10-fold CV on all experiments",
			MAPE: c.cv.MAPESummary().Mean, Skipped: c.cv.SkippedObservations()},
		{Scenario: 4, Name: s4.Name, MAPE: s4.MAPE, Skipped: s4.Skipped},
	}, nil
}

// --- E6 / E7: Figure 5 ------------------------------------------------

// Fig5a reproduces Figure 5a: actual vs estimated average power when
// training on synthetic workloads and validating on SPEC (scenario 2).
func (c *Context) Fig5a() ([]core.Prediction, error) {
	s2, err := core.Scenario2(c.fullDS, c.selected)
	if err != nil {
		return nil, err
	}
	return s2.Predictions, nil
}

// Fig5b reproduces Figure 5b: actual vs estimated power from the
// out-of-fold predictions of the 10-fold cross validation (scenario 3).
func (c *Context) Fig5b() []core.Prediction {
	return c.cv.Predictions
}
