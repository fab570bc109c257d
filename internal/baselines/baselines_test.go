package baselines

import (
	"math"
	"sync"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

var (
	dsOnce sync.Once
	ds     *acquisition.Dataset
	dsErr  error
)

func events() []pmu.EventID {
	var out []pmu.EventID
	for _, n := range []string{"TOT_CYC", "TOT_INS", "LST_INS", "L1_DCM", "RES_STL", "L3_TCM"} {
		out = append(out, pmu.MustByName(n).ID)
	}
	return out
}

func dataset(t *testing.T) *acquisition.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		ds, dsErr = acquisition.Acquire(acquisition.Options{Seed: 42, Events: events()},
			workloads.Active(), []int{1200, 2000, 2600})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return ds
}

func TestRodrigues(t *testing.T) {
	d := dataset(t)
	m, err := TrainRodrigues(d.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
	// In-sample accuracy is decent but clearly worse than a DVFS-aware
	// model would be: a plain linear model over three counters.
	mape := MAPE(m, d.Rows)
	if mape <= 0 || mape > 40 {
		t.Fatalf("Rodrigues in-sample MAPE = %.2f%%", mape)
	}
	if _, err := TrainRodrigues(nil); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestRodriguesCannotTransferDVFS(t *testing.T) {
	d := dataset(t)
	at2000 := d.AtFrequency(2000)
	others := d.Filter(func(r *acquisition.Row) bool { return r.FreqMHz != 2000 })
	m, err := TrainRodrigues(at2000.Rows)
	if err != nil {
		t.Fatal(err)
	}
	in := MAPE(m, at2000.Rows)
	out := MAPE(m, others.Rows)
	if out < in*1.5 {
		t.Fatalf("Rodrigues transfer (%.2f%%) suspiciously close to in-frequency (%.2f%%) — it has no V/f terms", out, in)
	}
}

func TestCyclesOnly(t *testing.T) {
	d := dataset(t)
	m, err := TrainCyclesOnly(d.Rows)
	if err != nil {
		t.Fatal(err)
	}
	mape := MAPE(m, d.Rows)
	if mape <= 0 || mape > 40 {
		t.Fatalf("cycles-only MAPE = %.2f%%", mape)
	}
	// Utilization alone misses workload character: AVX vs integer at
	// identical utilization must be mis-predicted somewhere.
	var worst float64
	for _, r := range d.Rows {
		ape := math.Abs(m.Predict(r)-r.PowerW) / r.PowerW * 100
		if ape > worst {
			worst = ape
		}
	}
	if worst < 10 {
		t.Fatalf("cycles-only worst-case APE only %.2f%% — too good to be true", worst)
	}
}

func TestPerFreqLinear(t *testing.T) {
	d := dataset(t)
	m, err := TrainPerFreqLinear(d.Rows, events())
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution it is strong (a free intercept per frequency).
	mape := MAPE(m, d.Rows)
	if mape > 15 {
		t.Fatalf("per-frequency in-sample MAPE = %.2f%%", mape)
	}
	// An unseen frequency falls back to the nearest trained model and
	// degrades.
	unseen, err := acquisition.Acquire(acquisition.Options{Seed: 43, Events: events()},
		workloads.ActiveByClass(workloads.Synthetic)[:3], []int{1600})
	if err != nil {
		t.Fatal(err)
	}
	m2000, err := TrainPerFreqLinear(d.AtFrequency(2000).Rows, events())
	if err != nil {
		t.Fatal(err)
	}
	at1600 := MAPE(m2000, unseen.Rows)
	if at1600 < 3 {
		t.Fatalf("per-frequency model predicting an unseen frequency at %.2f%% — should degrade", at1600)
	}
}

func TestPerFreqLinearNearestFallback(t *testing.T) {
	d := dataset(t)
	m, err := TrainPerFreqLinear(d.AtFrequency(1200).Rows, events())
	if err != nil {
		t.Fatal(err)
	}
	// Predicting any row must not panic even for untrained
	// frequencies.
	for _, r := range d.Rows {
		if v := m.Predict(r); math.IsNaN(v) {
			t.Fatal("fallback prediction is NaN")
		}
	}
}

// TestPerFreqLinearTieGoesToLowerFrequency pins the fallback that
// E13's transfer split depends on: 1600 MHz is 400 MHz from both 1200
// and 2000 MHz, and the tie must go to 1200 MHz on every training run,
// not to whichever frequency a map iteration happened to list first.
func TestPerFreqLinearTieGoesToLowerFrequency(t *testing.T) {
	d := dataset(t)
	train := d.Filter(func(r *acquisition.Row) bool { return r.FreqMHz == 1200 || r.FreqMHz == 2000 })
	m1200, err := TrainPerFreqLinear(d.AtFrequency(1200).Rows, events())
	if err != nil {
		t.Fatal(err)
	}
	at1600, err := acquisition.Acquire(acquisition.Options{Seed: 43, Events: events()},
		workloads.ActiveByClass(workloads.Synthetic)[:3], []int{1600})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		m, err := TrainPerFreqLinear(train.Rows, events())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range at1600.Rows {
			if got, want := m.Predict(r), m1200.Predict(r); got != want {
				t.Fatalf("run %d: %s@1600 MHz predicts %v W, want the 1200 MHz sub-model's %v W", run, r.Workload, got, want)
			}
		}
	}
}

func TestMAPEHelper(t *testing.T) {
	d := dataset(t)
	m, err := TrainCyclesOnly(d.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if MAPE(m, d.Rows[:5]) < 0 {
		t.Fatal("MAPE must be non-negative")
	}
}
