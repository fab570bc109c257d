package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"pmcpower/internal/pmu"
)

func TestAttributeSumsToPrediction(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	for _, r := range full.Rows[:20] {
		at := m.Attribute(r)
		if math.Abs(at.TotalW-m.Predict(r)) > 1e-9 {
			t.Fatalf("attribution total %.6f != prediction %.6f", at.TotalW, m.Predict(r))
		}
		// 3 shared terms + one per event.
		if len(at.Terms) != 3+len(m.Events) {
			t.Fatalf("%d terms", len(at.Terms))
		}
		var sum float64
		for _, term := range at.Terms {
			sum += term.Watts
		}
		if math.Abs(sum-at.TotalW) > 1e-9 {
			t.Fatal("terms don't sum to total")
		}
	}
}

func TestAttributePerCore(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	r := full.Rows[30] // a multi-thread row

	// Fabricate per-core rates: split the node rates over 4 cores with
	// an uneven 40/30/20/10 distribution.
	shares := []float64{0.4, 0.3, 0.2, 0.1}
	coreRates := map[int]map[pmu.EventID]float64{}
	for c, share := range shares {
		rates := map[pmu.EventID]float64{}
		for id, v := range r.Rates {
			rates[id] = v * share
		}
		coreRates[c] = rates
	}
	per, err := m.AttributePerCore(coreRates, r.VoltageV, r.FreqMHz)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("%d cores", len(per))
	}
	// Conservation: per-core powers sum to the node prediction.
	var sum float64
	for _, cp := range per {
		sum += cp.Watts
	}
	if math.Abs(sum-m.Predict(r)) > 1e-6 {
		t.Fatalf("per-core sum %.4f != node prediction %.4f", sum, m.Predict(r))
	}
	// Ordering: the busier core carries more of the activity power.
	// (The shared terms are equal, so ordering follows activity.)
	act0 := per[0].Watts - per[3].Watts
	if act0 <= 0 {
		t.Fatalf("core 0 (40%% of activity) must exceed core 3 (10%%): %+v", per)
	}
	// Deterministic core order.
	for i := 1; i < len(per); i++ {
		if per[i].Core <= per[i-1].Core {
			t.Fatal("cores not sorted")
		}
	}
}

func TestAttributePerCoreValidation(t *testing.T) {
	m := trainedModel(t)
	if _, err := m.AttributePerCore(nil, 1.0, 2400); err == nil {
		t.Fatal("empty rates must error")
	}
	rates := map[int]map[pmu.EventID]float64{0: {}}
	if _, err := m.AttributePerCore(rates, 1.0, 2400); err == nil {
		t.Fatal("missing events must error")
	}
	_, full := fixtures(t)
	r := full.Rows[0]
	good := map[int]map[pmu.EventID]float64{0: r.Rates}
	if _, err := m.AttributePerCore(good, 0, 2400); err == nil {
		t.Fatal("zero voltage must error")
	}
	if _, err := m.AttributePerCore(good, 1.0, 0); err == nil {
		t.Fatal("zero frequency must error")
	}

	// Each core's rates pass Estimate's rule at the shared operating
	// point; the refusal wraps its sentinel and names the first core
	// that fails.
	tot := pmu.MustByName("TOT_CYC").ID
	withRate := func(v float64) map[int]map[pmu.EventID]float64 {
		bad := maps.Clone(r.Rates)
		bad[tot] = v
		return map[int]map[pmu.EventID]float64{0: r.Rates, 3: bad}
	}
	for _, c := range []struct {
		name      string
		coreRates map[int]map[pmu.EventID]float64
		voltageV  float64
		want      error
		core      int
	}{
		{"NaN voltage", good, math.NaN(), ErrBadOperatingPoint, 0},
		{"+Inf voltage", good, math.Inf(1), ErrBadOperatingPoint, 0},
		{"NaN rate", withRate(math.NaN()), r.VoltageV, ErrBadRate, 3},
		{"negative rate", withRate(-5), r.VoltageV, ErrBadRate, 3},
	} {
		per, err := m.AttributePerCore(c.coreRates, c.voltageV, r.FreqMHz)
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), fmt.Sprintf("(core %d)", c.core)) {
			t.Fatalf("%s: got %v, %v; want an error wrapping %v naming core %d", c.name, per, err, c.want, c.core)
		}
	}
}
