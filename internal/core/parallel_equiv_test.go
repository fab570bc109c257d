package core

import (
	"math"
	"testing"

	"pmcpower/internal/pmu"
)

// The determinism contract of the parallel execution paths: any
// Parallelism setting must produce bit-identical results to a serial
// run. These tests pin the contract with float equality (==), not
// tolerances — reordered reductions would fail them.

// sameFloat is bit-level float equality that treats NaN == NaN (the
// single-column VIF of the first selection step is NaN by contract).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestSelectEventsParallelEquivalence(t *testing.T) {
	sel, _ := fixtures(t)
	serial, err := SelectEvents(sel.Rows, SelectOptions{Count: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SelectEvents(sel.Rows, SelectOptions{Count: 6, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("step counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.Event != p.Event {
			t.Fatalf("step %d: selected %s serially but %s in parallel",
				i, pmu.Lookup(s.Event).Short, pmu.Lookup(p.Event).Short)
		}
		if !sameFloat(s.R2, p.R2) || !sameFloat(s.AdjR2, p.AdjR2) || !sameFloat(s.MeanVIF, p.MeanVIF) {
			t.Fatalf("step %d: metrics differ: %+v vs %+v", i, s, p)
		}
		if len(s.VIFs) != len(p.VIFs) {
			t.Fatalf("step %d: VIF counts differ", i)
		}
		for j := range s.VIFs {
			if !sameFloat(s.VIFs[j], p.VIFs[j]) {
				t.Fatalf("step %d: VIF[%d] differs: %v vs %v", i, j, s.VIFs[j], p.VIFs[j])
			}
		}
	}
}

func TestSelectWithStrategyParallelEquivalence(t *testing.T) {
	sel, _ := fixtures(t)
	for _, strategy := range AllStrategies() {
		serial, err := selectWithStrategy(sel.Rows, strategy, 4, 1)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		par, err := selectWithStrategy(sel.Rows, strategy, 4, 4)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if len(serial) != len(par) {
			t.Fatalf("%v: set sizes differ", strategy)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("%v: event %d differs: %s vs %s", strategy, i,
					pmu.Lookup(serial[i]).Short, pmu.Lookup(par[i]).Short)
			}
		}
	}
}

func TestCrossValidateParallelEquivalence(t *testing.T) {
	_, full := fixtures(t)
	serial, err := CrossValidateP(full.Rows, canonicalEvents(), 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CrossValidateP(full.Rows, canonicalEvents(), 10, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Folds) != len(par.Folds) {
		t.Fatalf("fold counts differ: %d vs %d", len(serial.Folds), len(par.Folds))
	}
	for i := range serial.Folds {
		if serial.Folds[i] != par.Folds[i] {
			t.Fatalf("fold %d differs: %+v vs %+v", i, serial.Folds[i], par.Folds[i])
		}
	}
	if len(serial.Predictions) != len(par.Predictions) {
		t.Fatalf("prediction counts differ: %d vs %d", len(serial.Predictions), len(par.Predictions))
	}
	for i := range serial.Predictions {
		s, p := serial.Predictions[i], par.Predictions[i]
		if s.Row != p.Row || s.Actual != p.Actual || s.Predicted != p.Predicted {
			t.Fatalf("prediction %d differs: %+v vs %+v", i, s, p)
		}
	}
}

func TestCrossValidateRejectsInvalidFoldCount(t *testing.T) {
	_, full := fixtures(t)
	for _, k := range []int{1, 0, -3, len(full.Rows) + 1} {
		if _, err := CrossValidateP(full.Rows, canonicalEvents(), k, 7, 0); err == nil {
			t.Fatalf("k=%d must be rejected", k)
		}
	}
}

// --- StreamSession.Push input validation -------------------------------

func TestOnlineEstimatorRejectsInvalidRates(t *testing.T) {
	m := trainedModel(t)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for _, v := range bad {
		est, err := NewStreamSession(m, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s := sampleFromRow(0, 100, t)
		// Copy before poisoning: the fixture rows are shared.
		rates := make(map[pmu.EventID]float64, len(s.Rates))
		for id, r := range s.Rates {
			rates[id] = r
		}
		rates[m.Events[0]] = v
		s.Rates = rates
		if _, err := est.Push(s); err == nil {
			t.Fatalf("rate %v must be rejected", v)
		}
		if _, n := est.Totals(); n != 0 {
			t.Fatalf("rejected sample with rate %v mutated estimator state", v)
		}
	}
}

func TestOnlineEstimatorRejectsInvalidVoltage(t *testing.T) {
	m := trainedModel(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), 0, -0.9} {
		est, err := NewStreamSession(m, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s := sampleFromRow(0, 100, t)
		s.VoltageV = v
		if _, err := est.Push(s); err == nil {
			t.Fatalf("voltage %v must be rejected", v)
		}
		if _, n := est.Totals(); n != 0 {
			t.Fatalf("rejected sample with voltage %v mutated estimator state", v)
		}
	}
}

func TestOnlineEstimatorStateSurvivesRejection(t *testing.T) {
	m := trainedModel(t)
	est, err := NewStreamSession(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := est.Push(sampleFromRow(0, 100, t))
	if err != nil {
		t.Fatal(err)
	}
	// A rejected sample must leave the EWMA untouched...
	bad := sampleFromRow(1, 200, t)
	bad.VoltageV = math.NaN()
	if _, err := est.Push(bad); err == nil {
		t.Fatal("NaN voltage must be rejected")
	}
	// ...so the next valid sample smooths against the last good state.
	b, err := est.Push(sampleFromRow(1, 300, t))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*b.InstantW + 0.5*a.SmoothedW
	if math.Abs(b.SmoothedW-want) > 1e-9 {
		t.Fatalf("EWMA after rejection = %v, want %v (state contaminated?)", b.SmoothedW, want)
	}
	if _, n := est.Totals(); n != 2 {
		t.Fatalf("Samples = %d, want 2", n)
	}
}
