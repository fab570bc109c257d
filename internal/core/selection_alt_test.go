package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

func TestStrategyStrings(t *testing.T) {
	for _, s := range AllStrategies() {
		if s.String() == "" {
			t.Fatalf("strategy %d has empty name", int(s))
		}
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}

func TestSelectWithStrategyValidation(t *testing.T) {
	sel, _ := fixtures(t)
	if _, err := selectWithStrategy(sel.Rows, StrategyGreedyR2, 0, 0); err == nil {
		t.Fatal("count 0 must error")
	}
	if _, err := selectWithStrategy(nil, StrategyGreedyR2, 2, 0); err == nil {
		t.Fatal("empty rows must error")
	}
	if _, err := selectWithStrategy(sel.Rows, Strategy(99), 2, 0); err == nil {
		t.Fatal("unknown strategy must error")
	}
	if _, err := selectWithStrategy(sel.Rows, StrategyPCC, 55, 0); err == nil {
		t.Fatal("count > the 54 presets must error")
	}
}

func TestStrategyGreedyMatchesAlgorithm1(t *testing.T) {
	sel, _ := fixtures(t)
	viaStrategy, err := selectWithStrategy(sel.Rows, StrategyGreedyR2, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := SelectEvents(sel.Rows, SelectOptions{Count: 6})
	if err != nil {
		t.Fatal(err)
	}
	direct := Events(steps)
	for i := range direct {
		if viaStrategy[i] != direct[i] {
			t.Fatal("StrategyGreedyR2 must be Algorithm 1")
		}
	}
}

// aicByTrain is greedy forward selection by the Akaike information
// criterion, every candidate of every round scored by a full Train
// fit and a failed fit skipped: the search StrategyAIC ran before it
// selected through Algorithm 1, kept as the oracle that pins the two
// to the same events.
func aicByTrain(rows []*acquisition.Row, count int) ([]pmu.EventID, error) {
	n := float64(len(rows))
	var selected []pmu.EventID
	in := map[pmu.EventID]bool{}
	for len(selected) < count {
		best, bestAIC := pmu.EventID(-1), math.Inf(1)
		for _, cand := range pmu.AllIDs() {
			if in[cand] {
				continue
			}
			m, err := Train(rows, append(append([]pmu.EventID(nil), selected...), cand), TrainOptions{})
			if err != nil {
				continue
			}
			var ssr float64
			for _, e := range m.Fit.Residuals {
				ssr += e * e
			}
			if aic := n*math.Log(ssr/n) + 2*float64(m.Fit.K); aic < bestAIC {
				best, bestAIC = cand, aic
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("AIC selection stuck after %d events", len(selected))
		}
		selected = append(selected, best)
		in[best] = true
	}
	return selected, nil
}

func TestStrategyAICIsAlgorithm1(t *testing.T) {
	sel, full := fixtures(t)
	cases := []struct {
		name  string
		rows  []*acquisition.Row
		count int
	}{
		{"selection campaign", sel.Rows, 8},
		// The evaluation campaign records only the evaluation
		// counters, so the oracle runs out of fittable candidates at
		// count 8.
		{"evaluation campaign", full.Rows, 5},
	}
	for _, tc := range cases {
		got, err := selectWithStrategy(tc.rows, StrategyAIC, tc.count, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := aicByTrain(tc.rows, tc.count)
		if err != nil {
			t.Fatalf("%s oracle: %v", tc.name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: StrategyAIC selected %v, AIC by full fits %v",
				tc.name, pmu.ShortNames(got), pmu.ShortNames(want))
		}
	}
}

func TestAllStrategiesProduceValidSets(t *testing.T) {
	sel, _ := fixtures(t)
	for _, s := range AllStrategies() {
		events, err := selectWithStrategy(sel.Rows, s, 6, 0)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if len(events) != 6 {
			t.Fatalf("strategy %v selected %d events", s, len(events))
		}
		seen := map[pmu.EventID]bool{}
		for _, id := range events {
			if seen[id] {
				t.Fatalf("strategy %v selected %s twice", s, pmu.Lookup(id).Short)
			}
			seen[id] = true
		}
		// Every set must be trainable.
		m, err := Train(sel.Rows, events, TrainOptions{})
		if err != nil {
			t.Fatalf("strategy %v produced untrainable set: %v", s, err)
		}
		if m.R2() < 0.5 {
			t.Fatalf("strategy %v R² = %.3f implausibly low", s, m.R2())
		}
	}
}

func TestPCCStrategyPicksMostCorrelated(t *testing.T) {
	sel, _ := fixtures(t)
	events, err := selectWithStrategy(sel.Rows, StrategyPCC, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compute the reference ranking directly.
	power := make([]float64, len(sel.Rows))
	for i, r := range sel.Rows {
		power[i] = r.PowerW
	}
	absPCC := func(id pmu.EventID) float64 {
		rates := make([]float64, len(sel.Rows))
		for i, r := range sel.Rows {
			rates[i] = r.RatePerCycle(id)
		}
		return math.Abs(stats.Pearson(rates, power))
	}
	minSelected := math.Inf(1)
	for _, id := range events {
		if v := absPCC(id); v < minSelected {
			minSelected = v
		}
	}
	// No unselected counter may beat the weakest selected one.
	for _, id := range pmu.AllIDs() {
		in := false
		for _, s := range events {
			if s == id {
				in = true
			}
		}
		if in {
			continue
		}
		if v := absPCC(id); !math.IsNaN(v) && v > minSelected+1e-12 {
			t.Fatalf("counter %s (|PCC|=%.3f) beats weakest selected (%.3f) but was skipped",
				pmu.Lookup(id).Short, v, minSelected)
		}
	}
}

func TestBackwardEliminationIndependent(t *testing.T) {
	sel, _ := fixtures(t)
	events, err := selectWithStrategy(sel.Rows, StrategyBackward, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving set must have finite VIFs (linearly independent).
	vif, err := stats.MeanVIF(RateMatrix(sel.Rows, events), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(vif, 1) {
		t.Fatal("backward elimination left a collinear set")
	}
}

// TestIndependentSubsetMatchesTrain: independentSubset keeps exactly
// the candidates that a Train of the events kept before them and the
// candidate fits, in order. It runs on the selection campaign, where
// read-out noise breaks every exact preset sum; on a copy in which
// L1_TCM is exactly L1_DCM + L1_ICM and BR_INS never fires, so two
// presets must go; and on twelve rows, where Train's rows-over-columns
// bound ends the scan.
func TestIndependentSubsetMatchesTrain(t *testing.T) {
	sel, _ := fixtures(t)
	byTrain := func(rows []*acquisition.Row, candidates []pmu.EventID) []pmu.EventID {
		var kept []pmu.EventID
		for _, cand := range candidates {
			trial := append(slices.Clone(kept), cand)
			if len(trial)+3 > len(rows) {
				break
			}
			if _, err := Train(rows, trial, TrainOptions{}); err == nil {
				kept = append(kept, cand)
			}
		}
		return kept
	}
	tcm, dcm, icm := pmu.MustByName("L1_TCM").ID, pmu.MustByName("L1_DCM").ID, pmu.MustByName("L1_ICM").ID
	brIns := pmu.MustByName("BR_INS").ID
	exact := make([]*acquisition.Row, len(sel.Rows))
	for i, r := range sel.Rows {
		c := *r
		c.Rates = maps.Clone(r.Rates)
		c.Rates[tcm] = c.Rates[dcm] + c.Rates[icm]
		c.Rates[brIns] = 0
		exact[i] = &c
	}
	candidates := pmu.AllIDs()
	for _, c := range []struct {
		name string
		rows []*acquisition.Row
		kept int
	}{
		{"selection campaign", sel.Rows, len(candidates)},
		{"exact sum and a silent counter", exact, len(candidates) - 2},
		{"twelve rows", sel.Rows[:12], 12 - 4},
	} {
		got, want := independentSubset(c.rows, candidates), byTrain(c.rows, candidates)
		if !slices.Equal(got, want) {
			t.Errorf("%s: independentSubset keeps %v, Train keeps %v", c.name, pmu.ShortNames(got), pmu.ShortNames(want))
		}
		if len(got) != c.kept {
			t.Errorf("%s: %d candidates kept, want %d", c.name, len(got), c.kept)
		}
	}
}

func TestLassoDeterministic(t *testing.T) {
	sel, _ := fixtures(t)
	a, err := selectWithStrategy(sel.Rows, StrategyLasso, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectWithStrategy(sel.Rows, StrategyLasso, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("lasso path must be deterministic")
		}
	}
}

func TestCompareStrategies(t *testing.T) {
	sel, full := fixtures(t)
	cmps, err := CompareStrategiesP(sel.Rows, full.Rows[:0:0], 6, 7, 0)
	if err == nil && len(cmps) > 0 {
		t.Fatal("empty eval rows must fail")
	}
	// fixtures' full dataset only has the canonical six counters; a
	// strategy may pick others, so use the selection dataset (which
	// has all counters) as the evaluation set too. Same-frequency CV
	// is statistically weaker but exercises the full path.
	cmps, err = CompareStrategiesP(sel.Rows, sel.Rows, 6, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != len(AllStrategies()) {
		t.Fatalf("%d comparisons for %d strategies", len(cmps), len(AllStrategies()))
	}
	for _, cmp := range cmps {
		if cmp.CVMAPE <= 0 || math.IsNaN(cmp.CVMAPE) {
			t.Fatalf("strategy %v CV MAPE = %v", cmp.Strategy, cmp.CVMAPE)
		}
		if cmp.R2 <= 0 || cmp.R2 > 1 {
			t.Fatalf("strategy %v R² = %v", cmp.Strategy, cmp.R2)
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	if softThreshold(5, 2) != 3 {
		t.Fatal("positive shrink wrong")
	}
	if softThreshold(-5, 2) != -3 {
		t.Fatal("negative shrink wrong")
	}
	if softThreshold(1, 2) != 0 {
		t.Fatal("inside threshold must be zero")
	}
}

// BenchmarkSelectWithStrategy times the two sequential strategies on
// the selection campaign (seed 42, the 54 presets at 2400 MHz, serial):
// backward elimination, whose first step is independentSubset, and the
// LASSO path.
func BenchmarkSelectWithStrategy(b *testing.B) {
	sel, _ := fixtures(b)
	for _, s := range []Strategy{StrategyBackward, StrategyLasso} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := selectWithStrategy(sel.Rows, s, 6, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
