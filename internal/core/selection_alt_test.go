package core

import (
	"math"
	"testing"

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
