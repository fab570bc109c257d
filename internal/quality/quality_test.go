package quality

import (
	"math"
	"testing"
)

func TestTrackerWindowStats(t *testing.T) {
	tr := NewTracker(4)
	s := tr.Snapshot()
	if s.N != 0 || s.MAPEPct != 0 || s.BiasW != 0 || s.Total != 0 {
		t.Fatalf("fresh tracker snapshot = %+v", s)
	}

	// Four pairs with known errors: pred-obs = +1, -1, +2, -2 over
	// obs = 100 each.
	for _, e := range []float64{1, -1, 2, -2} {
		if !tr.Observe(100+e, 100) {
			t.Fatalf("Observe(%v) rejected", e)
		}
	}
	s = tr.Snapshot()
	if s.N != 4 || s.Total != 4 {
		t.Fatalf("window fill = %+v", s)
	}
	if math.Abs(s.BiasW) > 1e-12 {
		t.Errorf("bias = %v, want 0", s.BiasW)
	}
	if want := 1.5; math.Abs(s.MAPEPct-want) > 1e-12 {
		t.Errorf("MAPE = %v, want %v%%", s.MAPEPct, want)
	}

	// Slide: four more pairs all at +10 on obs=100 evict the old
	// window entirely.
	for i := 0; i < 4; i++ {
		tr.Observe(110, 100)
	}
	s = tr.Snapshot()
	if s.N != 4 || s.Total != 8 {
		t.Fatalf("after slide: %+v", s)
	}
	if math.Abs(s.BiasW-10) > 1e-12 || math.Abs(s.MAPEPct-10) > 1e-12 {
		t.Errorf("windowed bias/MAPE = %v/%v, want 10/10", s.BiasW, s.MAPEPct)
	}
}

func TestTrackerSkipsUnusablePairs(t *testing.T) {
	tr := NewTracker(8)
	for _, pair := range [][2]float64{
		{math.NaN(), 100}, {math.Inf(1), 100},
		{100, math.NaN()}, {100, math.Inf(-1)},
		{100, 0}, {100, -5},
	} {
		if tr.Observe(pair[0], pair[1]) {
			t.Errorf("Observe(%v, %v) accepted", pair[0], pair[1])
		}
	}
	s := tr.Snapshot()
	if s.N != 0 || s.Total != 0 || s.Skipped != 6 {
		t.Fatalf("snapshot after unusable pairs = %+v", s)
	}
}

// TestTrackerWindowMatchesDirectComputation cross-checks the
// incremental window sums against a direct recomputation over a long
// randomized-ish stream.
func TestTrackerWindowMatchesDirectComputation(t *testing.T) {
	const window = 16
	tr := NewTracker(window)
	var pred, obs []float64
	x := 0.5
	for i := 0; i < 500; i++ {
		// Deterministic low-discrepancy-ish stream.
		x = math.Mod(x*997+0.1234, 1)
		p := 50 + 100*x
		o := p * (1 + 0.1*math.Sin(float64(i)))
		pred = append(pred, p)
		obs = append(obs, o)
		tr.Observe(p, o)

		lo := len(pred) - window
		if lo < 0 {
			lo = 0
		}
		var sumSigned, sumAPE float64
		for j := lo; j < len(pred); j++ {
			sumSigned += pred[j] - obs[j]
			sumAPE += math.Abs(pred[j]-obs[j]) / obs[j] * 100
		}
		n := float64(len(pred) - lo)
		s := tr.Snapshot()
		if math.Abs(s.BiasW-sumSigned/n) > 1e-9 {
			t.Fatalf("step %d: bias %v, want %v", i, s.BiasW, sumSigned/n)
		}
		if math.Abs(s.MAPEPct-sumAPE/n) > 1e-9 {
			t.Fatalf("step %d: MAPE %v, want %v", i, s.MAPEPct, sumAPE/n)
		}
	}
}

func TestP2QuantileAgainstUniform(t *testing.T) {
	// A deterministic permutation-ish sweep of 0..9999; the exact
	// quantiles are known, P² must land close.
	var e50, e95, e99 p2Estimator
	e50.init(0.50)
	e95.init(0.95)
	e99.init(0.99)
	const n = 10000
	seen := 0
	v := 1
	// Full-cycle multiplicative generator over 1..10006 (10007 prime).
	for i := 0; i < n; i++ {
		v = v * 5 % 10007
		x := float64(v-1) / 10006 * 100 // ~uniform on [0, 100)
		e50.observe(x)
		e95.observe(x)
		e99.observe(x)
		seen++
	}
	if seen != n {
		t.Fatalf("generator cycled early: %d", seen)
	}
	for _, tc := range []struct {
		est  *p2Estimator
		want float64
	}{{&e50, 50}, {&e95, 95}, {&e99, 99}} {
		got, ok := tc.est.value()
		if !ok {
			t.Fatalf("estimator for %v empty", tc.want)
		}
		if math.Abs(got-tc.want) > 2 {
			t.Errorf("p%v estimate = %v, want within 2 of %v", tc.want, got, tc.want)
		}
	}
}

func TestP2SmallSamples(t *testing.T) {
	var e p2Estimator
	e.init(0.5)
	if _, ok := e.value(); ok {
		t.Fatal("empty estimator reported a value")
	}
	e.observe(7)
	if v, ok := e.value(); !ok || v != 7 {
		t.Fatalf("single observation = %v, %v; want 7", v, ok)
	}
	e.observe(3)
	e.observe(5)
	if v, ok := e.value(); !ok || v != 5 {
		t.Fatalf("median of {3,5,7} = %v, %v; want 5", v, ok)
	}
}

func TestTrackerObserveAllocFree(t *testing.T) {
	tr := NewTracker(64)
	for i := 0; i < 128; i++ {
		tr.Observe(100+float64(i%7), 100)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(103, 100)
		_ = tr.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("Tracker.Observe+Snapshot allocates %.1f/op, want 0", allocs)
	}
}
