// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV/V) plus the ablations and baseline
// comparisons called out in DESIGN.md. Each experiment is a function
// on a shared Context that caches the acquisition campaigns, so cmds,
// tests and benchmarks all reproduce identical numbers.
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

// Context caches the acquisition campaigns and derived results shared
// between experiments. Safe for concurrent use.
type Context struct {
	cfg Config

	mu          sync.Mutex
	selectionDS *acquisition.Dataset // all counters, selection frequency
	fullDS      *acquisition.Dataset // evaluation counters, all frequencies
	fullAllDS   *acquisition.Dataset // all counters, all frequencies
	steps       []core.SelectionStep
	cv          *core.CVResult
}

// NewContext creates an experiment context with the given config.
func NewContext(cfg Config) *Context {
	return &Context{cfg: cfg}
}

// SelectionDataset acquires (once) the all-counter dataset at the
// selection frequency over all active workloads.
func (c *Context) SelectionDataset() (*acquisition.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.selectionDS != nil {
		return c.selectionDS, nil
	}
	ds, err := acquisition.Acquire(acquisition.Options{Seed: c.cfg.Seed, Parallelism: c.cfg.Parallelism},
		workloads.Active(), []int{selectionFreqMHz})
	if err != nil {
		return nil, fmt.Errorf("experiments: selection acquisition: %w", err)
	}
	c.selectionDS = ds
	return ds, nil
}

// SelectionSteps runs (once) Algorithm 1 on the selection dataset.
func (c *Context) SelectionSteps() ([]core.SelectionStep, error) {
	ds, err := c.SelectionDataset()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.steps != nil {
		return c.steps, nil
	}
	steps, err := core.SelectEvents(ds.Rows, core.SelectOptions{Count: numEvents, Parallelism: c.cfg.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("experiments: counter selection: %w", err)
	}
	c.steps = steps
	return steps, nil
}

// SelectedEvents returns the canonical six selected counters.
func (c *Context) SelectedEvents() ([]pmu.EventID, error) {
	steps, err := c.SelectionSteps()
	if err != nil {
		return nil, err
	}
	return core.Events(steps), nil
}

// evaluationEvents returns the counters acquired in the full campaign:
// the selected set plus the fixed counters and the events the
// baselines need.
func (c *Context) evaluationEvents() ([]pmu.EventID, error) {
	sel, err := c.SelectedEvents()
	if err != nil {
		return nil, err
	}
	want := map[pmu.EventID]bool{}
	for _, id := range sel {
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
	return out, nil
}

// FullDataset acquires (once) the evaluation dataset: selected and
// baseline counters over all workloads and all five DVFS states.
func (c *Context) FullDataset() (*acquisition.Dataset, error) {
	events, err := c.evaluationEvents()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fullDS != nil {
		return c.fullDS, nil
	}
	ds, err := acquisition.Acquire(acquisition.Options{Seed: c.cfg.Seed, Events: events, Parallelism: c.cfg.Parallelism},
		workloads.Active(), freqsMHz)
	if err != nil {
		return nil, fmt.Errorf("experiments: full acquisition: %w", err)
	}
	c.fullDS = ds
	return ds, nil
}

// CrossValidation runs (once) the canonical k-fold cross validation of
// the Equation-1 model over the full dataset.
func (c *Context) CrossValidation() (*core.CVResult, error) {
	ds, err := c.FullDataset()
	if err != nil {
		return nil, err
	}
	sel, err := c.SelectedEvents()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cv != nil {
		return c.cv, nil
	}
	cv, err := core.CrossValidateP(ds.Rows, sel, cvFolds, cvSeed, c.cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("experiments: cross validation: %w", err)
	}
	c.cv = cv
	return cv, nil
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
func (c *Context) TableI() ([]SelectionRow, error) {
	steps, err := c.SelectionSteps()
	if err != nil {
		return nil, err
	}
	return rowsFromSteps(steps), nil
}

// TableIV reproduces Table IV: counter selection performed on the
// synthetic (roco2) workloads only.
func (c *Context) TableIV() ([]SelectionRow, error) {
	ds, err := c.SelectionDataset()
	if err != nil {
		return nil, err
	}
	syn := ds.ByClass(workloads.Synthetic)
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
func (c *Context) Fig2() ([]Fig2Point, error) {
	steps, err := c.SelectionSteps()
	if err != nil {
		return nil, err
	}
	out := make([]Fig2Point, len(steps))
	for i, s := range steps {
		out[i] = Fig2Point{
			NumCounters: i + 1,
			Counter:     pmu.Lookup(s.Event).Short,
			R2:          s.R2,
			AdjR2:       s.AdjR2,
		}
	}
	return out, nil
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
func (c *Context) TableIIResult() (*TableII, error) {
	cv, err := c.CrossValidation()
	if err != nil {
		return nil, err
	}
	return &TableII{
		R2:         cv.R2Summary(),
		AdjR2:      cv.AdjR2Summary(),
		MAPE:       cv.MAPESummary(),
		SkippedObs: cv.SkippedObservations(),
	}, nil
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
	cv, err := c.CrossValidation()
	if err != nil {
		return nil, err
	}
	perWL := cv.PerWorkloadMAPE()

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

// Fig4 reproduces Figure 4: the MAPE of the four train/test scenarios.
func (c *Context) Fig4() ([]Fig4Bar, error) {
	s1, s2, s3, s4, err := c.Scenarios()
	if err != nil {
		return nil, err
	}
	return []Fig4Bar{
		{Scenario: 1, Name: s1.Name, MAPE: s1.MAPE, Skipped: s1.Skipped},
		{Scenario: 2, Name: s2.Name, MAPE: s2.MAPE, Skipped: s2.Skipped},
		{Scenario: 3, Name: s3.Name, MAPE: s3.MAPE, Skipped: s3.Skipped},
		{Scenario: 4, Name: s4.Name, MAPE: s4.MAPE, Skipped: s4.Skipped},
	}, nil
}

// Scenarios runs the paper's four validation scenarios on the full
// dataset with the canonical seeds.
func (c *Context) Scenarios() (s1, s2, s3, s4 *core.ScenarioResult, err error) {
	ds, err := c.FullDataset()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sel, err := c.SelectedEvents()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if s1, err = core.Scenario1(ds, sel, scenario1Seed); err != nil {
		return nil, nil, nil, nil, err
	}
	if s2, err = core.Scenario2(ds, sel); err != nil {
		return nil, nil, nil, nil, err
	}
	if s3, err = core.Scenario3(ds, sel, cvSeed); err != nil {
		return nil, nil, nil, nil, err
	}
	if s4, err = core.Scenario4(ds, sel, cvSeed); err != nil {
		return nil, nil, nil, nil, err
	}
	return s1, s2, s3, s4, nil
}

// --- E6 / E7: Figure 5 ------------------------------------------------

// Fig5a reproduces Figure 5a: actual vs estimated average power when
// training on synthetic workloads and validating on SPEC (scenario 2).
func (c *Context) Fig5a() ([]core.Prediction, error) {
	ds, err := c.FullDataset()
	if err != nil {
		return nil, err
	}
	sel, err := c.SelectedEvents()
	if err != nil {
		return nil, err
	}
	s2, err := core.Scenario2(ds, sel)
	if err != nil {
		return nil, err
	}
	return s2.Predictions, nil
}

// Fig5b reproduces Figure 5b: actual vs estimated power from the
// out-of-fold predictions of the 10-fold cross validation (scenario 3).
func (c *Context) Fig5b() ([]core.Prediction, error) {
	cv, err := c.CrossValidation()
	if err != nil {
		return nil, err
	}
	return cv.Predictions, nil
}
