package core

import (
	"bytes"
	"math"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

func TestPredictWithCI(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	for _, r := range full.Rows[:30] {
		iv, err := m.PredictWithCI(r)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Estimate != m.Predict(r) {
			t.Fatal("interval center must be the point prediction")
		}
		if iv.Low >= iv.Estimate || iv.High <= iv.Estimate {
			t.Fatalf("degenerate interval %+v", iv)
		}
		if iv.SE <= 0 {
			t.Fatalf("SE = %v", iv.SE)
		}
		// Mean-power CIs from 490 training rows must be tight relative
		// to the estimate.
		if width := iv.High - iv.Low; width > 0.5*iv.Estimate {
			t.Fatalf("CI width %.1f W implausibly wide for estimate %.1f W", width, iv.Estimate)
		}
	}
}

func TestPredictWithCICoverage(t *testing.T) {
	// Calibration check: the 95 % CI on expected power should contain
	// the *measured* power for most rows (the measured value adds
	// observation noise, so coverage below 95 % is expected — but it
	// must not collapse).
	m := trainedModel(t)
	_, full := fixtures(t)
	inside := 0
	for _, r := range full.Rows {
		iv, err := m.PredictWithCI(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.PowerW >= iv.Low && r.PowerW <= iv.High {
			inside++
		}
	}
	frac := float64(inside) / float64(len(full.Rows))
	if frac < 0.15 {
		t.Fatalf("mean-power CI contains only %.0f%% of measurements — intervals far too narrow", frac*100)
	}
}

func TestPredictWithCIWiderWhereDataIsSparse(t *testing.T) {
	// A model's relative standard error must grow away from its
	// training data: on a row outside the training slice's envelope,
	// and over a workload class the fit never saw (paper scenario 2).
	_, full := fixtures(t)
	relSE := func(m *Model, r *acquisition.Row) float64 {
		t.Helper()
		iv, err := m.PredictWithCI(r)
		if err != nil {
			t.Fatal(err)
		}
		if !(iv.SE > 0) || math.IsInf(iv.SE, 0) {
			t.Fatalf("%s: SE %v, want positive and finite", r.Workload, iv.SE)
		}
		return iv.SE / iv.Estimate
	}

	syn := full.Rows[:200] // synthetic-heavy slice (sorted by name: addpd, applu…)
	m, err := Train(syn, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The last row (swim) lies far outside the slice. The margins keep
	// a rounding difference from passing for a wider interval.
	out := full.Rows[len(full.Rows)-1]
	if in, far := relSE(m, syn[10]), relSE(m, out); far < 2*in {
		t.Errorf("SE/estimate %.2f %% on %s outside the training slice, %.2f %% on %s inside; want at least twice as large outside",
			100*far, out.Workload, 100*in, syn[10].Workload)
	}

	train, test := full.ByClass(workloads.Synthetic).Rows, full.ByClass(workloads.SPEC).Rows
	m, err = Train(train, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	median := func(rows []*acquisition.Row) float64 {
		rel := make([]float64, len(rows))
		for i, r := range rows {
			rel[i] = relSE(m, r)
		}
		return stats.Quantile(rel, 0.5)
	}
	if spec, seen := median(test), median(train); spec < 1.25*seen {
		t.Errorf("median SE/estimate %.2f %% on %d SPEC rows, %.2f %% on the %d synthetic training rows; want a quarter larger on SPEC",
			100*spec, len(test), 100*seen, len(train))
	}
}

func TestPredictWithCIRequiresCovariance(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, full := fixtures(t)
	if _, err := loaded.PredictWithCI(full.Rows[0]); err == nil {
		t.Fatal("JSON-loaded model (no covariance) must refuse CIs")
	}
}
