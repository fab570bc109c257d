package quality

import (
	"math"
	"testing"
	"time"

	"pmcpower/internal/pmu"
)

func testRates() map[pmu.EventID]float64 {
	out := map[pmu.EventID]float64{}
	for i, n := range []string{"TOT_CYC", "L3_TCM", "BR_TKN"} {
		out[pmu.MustByName(n).ID] = float64(100 + i)
	}
	return out
}

func obsAt(i int, pred, obs float64) Observation {
	return Observation{
		TimeNs:     uint64(i+1) * 1e6,
		Session:    "s1",
		FreqMHz:    2400,
		VoltageV:   1.05,
		Rates:      testRates(),
		PredictedW: pred,
		ObservedW:  obs,
	}
}

func TestExemplarsKeepWorst(t *testing.T) {
	e := NewExemplars(3)
	now := time.Unix(1_700_000_000, 0)
	// Residuals 1..5: the buffer must end with {3, 4, 5}.
	for i := 1; i <= 5; i++ {
		e.Consider(obsAt(i, 100+float64(i), 100), now.Add(time.Duration(i)*time.Second))
	}
	if e.Len() != 3 {
		t.Fatalf("len = %d, want 3", e.Len())
	}
	recs := e.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, want := range []float64{5, 4, 3} {
		if math.Abs(recs[i].ResidualW-want) > 1e-12 {
			t.Errorf("record %d residual = %v, want %v", i, recs[i].ResidualW, want)
		}
	}
	// A residual below the current floor is not admitted.
	if e.Consider(obsAt(9, 102, 100), now) {
		t.Fatal("sub-floor residual admitted")
	}
	// Records carry the full sample context with named rates.
	r := recs[0]
	if r.FreqMHz != 2400 || r.VoltageV != 1.05 || r.Session != "s1" || len(r.Rates) != 3 {
		t.Fatalf("record context incomplete: %+v", r)
	}
	if _, ok := r.Rates["PAPI_TOT_CYC"]; !ok {
		t.Fatalf("rates not keyed by PAPI name: %v", r.Rates)
	}
	if r.CapturedUnixNs == 0 {
		t.Fatal("capture timestamp missing")
	}
}

func TestMonitorDriftLifecycle(t *testing.T) {
	type transition struct{ from, to State }
	var seen []transition
	mon := NewMonitor(Config{
		Window:     32,
		Exemplars:  4,
		Thresholds: Thresholds{WarnMAPEPct: 5, AlertMAPEPct: 12},
		OnTransition: func(from, to State, o Observation, snap WindowSnapshot) {
			seen = append(seen, transition{from, to})
		},
		Now: func() time.Time { return time.Unix(1_700_000_000, 0) },
	})
	// The errors alternate in sign, so the windowed bias stays near 0 W
	// and only the MAPE trigger moves the state.
	sign := func(i int) float64 { return float64(1 - 2*(i%2)) }

	// Healthy phase: 2% error.
	for i := 0; i < 64; i++ {
		if !mon.Observe(obsAt(i, 100+2*sign(i), 100)) {
			t.Fatalf("healthy observe %d rejected", i)
		}
	}
	if mon.Snapshot().State != StateOK {
		t.Fatalf("healthy state = %v", mon.Snapshot().State)
	}

	// Ramp the error through warn (>5%) into alert (>12%).
	for i := 0; i < 128; i++ {
		errPct := 2 + 18*float64(i)/127 // 2% → 20%
		mon.Observe(obsAt(64+i, 100+errPct*sign(i), 100))
	}
	if mon.Snapshot().State != StateAlert {
		t.Fatalf("post-ramp state = %v", mon.Snapshot().State)
	}
	if len(seen) < 2 || seen[0] != (transition{StateOK, StateWarn}) ||
		seen[len(seen)-1].to != StateAlert {
		t.Fatalf("transitions = %+v, want ok->warn then ->alert", seen)
	}

	s := mon.Snapshot()
	if s.State != StateAlert || s.WarnTransitions < 1 || s.AlertTransitions < 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Window.N != 32 || s.Window.MAPEPct < 12 || math.Abs(s.Window.BiasW) > 1 {
		t.Fatalf("window stats = %+v", s.Window)
	}
	if s.Window.Total != 192 {
		t.Fatalf("lifetime total = %d, want 192", s.Window.Total)
	}
	if s.ExemplarCount != 4 {
		t.Fatalf("exemplar count = %d, want 4", s.ExemplarCount)
	}
	recs := mon.ExemplarRecords()
	if len(recs) != 4 || math.Abs(math.Abs(recs[0].ResidualW)-20) > 0.5 {
		t.Fatalf("worst exemplar = %+v", recs[0])
	}
}

// TestMonitorObserveSteadyStateAllocFree is the acceptance gate: once
// the window and exemplar buffer are warm, a labelled sample costs
// zero allocations through the whole quality path (tracker + quantile
// estimators + exemplar consideration + state machine).
func TestMonitorObserveSteadyStateAllocFree(t *testing.T) {
	mon := NewMonitor(Config{Window: 64, Exemplars: 8})
	rates := testRates()
	// Warm: residuals of 50 W fill the exemplar buffer far above
	// anything the steady state produces.
	for i := 0; i < 128; i++ {
		mon.Observe(Observation{
			TimeNs: uint64(i+1) * 1e6, FreqMHz: 2400, VoltageV: 1.05,
			Rates: rates, PredictedW: 150, ObservedW: 100,
		})
	}
	o := Observation{
		TimeNs: 1e12, FreqMHz: 2400, VoltageV: 1.05,
		Rates: rates, PredictedW: 101.5, ObservedW: 100,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		mon.Observe(o)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Monitor.Observe allocates %.1f/op, want 0", allocs)
	}
}
