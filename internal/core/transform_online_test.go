package core

import (
	"errors"
	"maps"
	"math"
	"testing"

	"pmcpower/internal/pmu"
)

func TestTransformationSearch(t *testing.T) {
	sel, _ := fixtures(t)
	cands, err := TransformationSearch(sel.Rows, canonicalEvents())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no transformation candidates evaluated")
	}
	for _, cd := range cands {
		if cd.Target == cd.Reference {
			t.Fatal("target must differ from reference")
		}
		if cd.MeanVIFBefore <= 0 || math.IsNaN(cd.MeanVIFBefore) {
			t.Fatalf("bad VIF before: %v", cd.MeanVIFBefore)
		}
		if cd.R2Before <= 0 || cd.R2Before > 1 {
			t.Fatalf("bad R² before: %v", cd.R2Before)
		}
		// The applicability rule must be internally consistent.
		want := cd.MeanVIFAfter < cd.MeanVIFBefore && cd.R2After >= cd.R2Before-0.005
		if cd.Applicable != want {
			t.Fatalf("applicability flag inconsistent for %v: %+v", cd.Kind, cd)
		}
	}
	// All candidates attack the same (most correlated) pair.
	for _, cd := range cands[1:] {
		if cd.Target != cands[0].Target || cd.Reference != cands[0].Reference {
			t.Fatal("candidates must address the most correlated pair")
		}
	}
}

func TestTransformationResidualizationOrthogonalizes(t *testing.T) {
	sel, _ := fixtures(t)
	cands, err := TransformationSearch(sel.Rows, canonicalEvents())
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range cands {
		if cd.Kind != TransformResidual {
			continue
		}
		// Residualization must not increase the mean VIF: the
		// transformed column is orthogonal to its reference.
		if cd.MeanVIFAfter > cd.MeanVIFBefore {
			t.Fatalf("residualization increased VIF: %.3f → %.3f", cd.MeanVIFBefore, cd.MeanVIFAfter)
		}
		// And it cannot change the R² of the model (same span).
		if math.Abs(cd.R2After-cd.R2Before) > 1e-6 {
			t.Fatalf("residualization changed the fitted span: R² %.6f → %.6f", cd.R2Before, cd.R2After)
		}
	}
}

func TestTransformationSearchValidation(t *testing.T) {
	sel, _ := fixtures(t)
	if _, err := TransformationSearch(sel.Rows, canonicalEvents()[:1]); err == nil {
		t.Fatal("single event must error")
	}
	if _, err := TransformationSearch(nil, canonicalEvents()); err == nil {
		t.Fatal("empty rows must error")
	}
}

func TestTransformKindString(t *testing.T) {
	for _, k := range []TransformKind{TransformRatio, TransformDifference, TransformResidual} {
		if k.String() == "" {
			t.Fatal("empty transform name")
		}
	}
	if TransformKind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

// --- online estimation ---------------------------------------------------

func trainedModel(t *testing.T) *Model {
	t.Helper()
	_, full := fixtures(t)
	m, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleFromRow(rowIdx int, timeNs uint64, t *testing.T) CounterSample {
	t.Helper()
	_, full := fixtures(t)
	r := full.Rows[rowIdx]
	return CounterSample{
		TimeNs:   timeNs,
		Rates:    r.Rates,
		VoltageV: r.VoltageV,
		FreqMHz:  r.FreqMHz,
	}
}

// TestEstimateIsPredictOrRefusal: Estimate returns Predict's bits for
// a sound sample, rates of other events included, and refuses a bad
// rate on any event the sample carries: the model's events first, in
// design order, then the lowest-numbered other event, whatever order
// the rates map ranges in.
func TestEstimateIsPredictOrRefusal(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	l1, l2 := pmu.MustByName("L1_DCM").ID, pmu.MustByName("L2_DCM").ID
	for _, r := range full.Rows[:20] {
		rates := maps.Clone(r.Rates)
		rates[l1], rates[l2] = 1e6, 2e6
		got, err := m.Estimate(CounterSample{FreqMHz: r.FreqMHz, VoltageV: r.VoltageV, Rates: rates})
		if want := m.Predict(r); err != nil || got != want {
			t.Fatalf("Estimate = %v, %v; want Predict's %v", got, err, want)
		}
	}
	r := full.Rows[0]
	cs := CounterSample{FreqMHz: r.FreqMHz, VoltageV: r.VoltageV, Rates: maps.Clone(r.Rates)}
	lo, hi := min(l1, l2), max(l1, l2)
	cs.Rates[lo], cs.Rates[hi] = -1, math.NaN()
	want := "core: invalid counter rate: -1 for event " + pmu.Lookup(lo).Name
	for i := 0; i < 20; i++ {
		if _, err := m.Estimate(cs); !errors.Is(err, ErrBadRate) || err.Error() != want {
			t.Fatalf("two bad other rates: err = %v, want %q", err, want)
		}
	}
	cs.Rates[m.Events[2]] = math.Inf(1)
	want = "core: invalid counter rate: +Inf for event " + pmu.Lookup(m.Events[2]).Name
	if _, err := m.Estimate(cs); err == nil || err.Error() != want {
		t.Fatalf("bad model rate beside bad other rates: err = %v, want %q", err, want)
	}
}

// TestOnlineEstimatorMatchesModel: with alpha 1 a StreamSession's
// instantaneous and smoothed watts are exactly Model.Predict.
func TestOnlineEstimatorMatchesModel(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	est, err := NewStreamSession(m, 1) // no smoothing
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s := sampleFromRow(i, uint64(i)*1e9, t)
		out, err := est.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Predict(full.Rows[i])
		if math.Abs(out.InstantW-want) > 1e-9 {
			t.Fatalf("online estimate %.3f != model prediction %.3f", out.InstantW, want)
		}
		if out.SmoothedW != out.InstantW {
			t.Fatal("alpha=1 must disable smoothing")
		}
	}
	if _, n := est.Totals(); n != 5 {
		t.Fatalf("Samples = %d", n)
	}
}

// TestOnlineEstimatorSmoothing pins StreamSession's EWMA.
func TestOnlineEstimatorSmoothing(t *testing.T) {
	m := trainedModel(t)
	est, err := NewStreamSession(m, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	a, err := est.Push(sampleFromRow(0, 0, t))
	if err != nil {
		t.Fatal(err)
	}
	// First sample primes the filter.
	if a.SmoothedW != a.InstantW {
		t.Fatal("first sample must prime the EWMA")
	}
	b, err := est.Push(sampleFromRow(40, 1e9, t)) // a very different row
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*b.InstantW + 0.75*a.SmoothedW
	if math.Abs(b.SmoothedW-want) > 1e-9 {
		t.Fatalf("EWMA = %.4f, want %.4f", b.SmoothedW, want)
	}
	// Smoothed must lie between the two instants.
	lo, hi := math.Min(a.InstantW, b.InstantW), math.Max(a.InstantW, b.InstantW)
	if b.SmoothedW < lo || b.SmoothedW > hi {
		t.Fatal("smoothed estimate outside the sample range")
	}
}

// TestOnlineEstimatorValidation covers StreamSession's constructor
// and per-sample checks.
func TestOnlineEstimatorValidation(t *testing.T) {
	m := trainedModel(t)
	if _, err := NewStreamSession(nil, 0.5); err == nil {
		t.Fatal("nil model must error")
	}
	for _, alpha := range []float64{0, -1, 1.5} {
		if _, err := NewStreamSession(m, alpha); err == nil {
			t.Fatalf("alpha %v must error", alpha)
		}
	}
	est, err := NewStreamSession(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order sample.
	if _, err := est.Push(sampleFromRow(0, 100, t)); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Push(sampleFromRow(1, 50, t)); err == nil {
		t.Fatal("out-of-order sample must error")
	}
	// Missing event.
	s := sampleFromRow(0, 200, t)
	s.Rates = map[pmu.EventID]float64{}
	if _, err := est.Push(s); err == nil {
		t.Fatal("missing model events must error")
	}
	// Missing operating point.
	s2 := sampleFromRow(0, 300, t)
	s2.FreqMHz = 0
	if _, err := est.Push(s2); err == nil {
		t.Fatal("missing operating point must error")
	}
}

// TestStreamSessionRejectsNonFiniteEstimate: a sample that passes
// validation but whose estimate overflows (a finite voltage of 1e200
// squares to +Inf) is rejected with ErrNonFinite before any state
// changes, on a frozen and on a refitting session. The totals stay
// put, and the next valid sample is served exactly as if the rejected
// one had never arrived.
func TestStreamSessionRejectsNonFiniteEstimate(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	for _, window := range []int{0, 16} {
		got, err := NewStreamSessionRefit(m, 0.5, window)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewStreamSessionRefit(m, 0.5, window)
		if err != nil {
			t.Fatal(err)
		}
		push := func(s *StreamSession, i int) (StreamEstimate, error) {
			return s.PushLabeled(sampleFromRow(i, uint64(i)*1e9, t), full.Rows[i].PowerW)
		}
		for i := 0; i < 20; i++ {
			if _, err := push(got, i); err != nil {
				t.Fatal(err)
			}
			if _, err := push(want, i); err != nil {
				t.Fatal(err)
			}
		}
		j0, n0 := got.Totals()
		bad := sampleFromRow(20, 20e9, t)
		bad.VoltageV = 1e200
		if _, err := got.PushLabeled(bad, full.Rows[20].PowerW); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("window %d: overflowing estimate: err = %v, want ErrNonFinite", window, err)
		}
		if j, n := got.Totals(); j != j0 || n != n0 {
			t.Fatalf("window %d: rejected sample moved the totals: (%v J, %d) -> (%v J, %d)", window, j0, n0, j, n)
		}
		for i := 21; i < 40; i++ {
			g, err := push(got, i)
			if err != nil {
				t.Fatal(err)
			}
			w, err := push(want, i)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Fatalf("window %d, sample %d after the rejection: got %+v, want %+v", window, i, g, w)
			}
		}
	}
}

// TestEnergyAccountant: a StreamSession integrates a constant power P
// over T seconds to P·T joules.
func TestEnergyAccountant(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	acc, err := NewStreamSession(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Constant power P over T seconds → energy P·T.
	r := full.Rows[0]
	p := m.Predict(r)
	const steps = 10
	for i := 0; i <= steps; i++ {
		out, err := acc.Push(CounterSample{
			TimeNs:   uint64(i) * 1e9,
			Rates:    r.Rates,
			VoltageV: r.VoltageV,
			FreqMHz:  r.FreqMHz,
		})
		if err != nil {
			t.Fatal(err)
		}
		j := out.TotalJoules
		want := p * float64(i)
		if math.Abs(j-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("energy after %d s = %.3f J, want %.3f J", i, j, want)
		}
	}
	if j, _ := acc.Totals(); math.Abs(j-p*steps) > 1e-6*p*steps {
		t.Fatalf("TotalJoules = %.3f, want %.3f", j, p*steps)
	}
}

// TestEnergyAccountantTrapezoid: between two samples a StreamSession
// adds the trapezoid of their instantaneous watts; a sample at the
// same time is accepted and adds 0 J.
func TestEnergyAccountantTrapezoid(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)
	acc, err := NewStreamSession(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rA, rB := full.Rows[0], full.Rows[40]
	pA, pB := m.Predict(rA), m.Predict(rB)
	if _, err := acc.Push(CounterSample{TimeNs: 0, Rates: rA.Rates, VoltageV: rA.VoltageV, FreqMHz: rA.FreqMHz}); err != nil {
		t.Fatal(err)
	}
	out, err := acc.Push(CounterSample{TimeNs: 2e9, Rates: rB.Rates, VoltageV: rB.VoltageV, FreqMHz: rB.FreqMHz})
	if err != nil {
		t.Fatal(err)
	}
	j := out.TotalJoules
	want := 2 * (pA + pB) / 2
	if math.Abs(j-want) > 1e-9*want {
		t.Fatalf("trapezoid energy = %.4f, want %.4f", j, want)
	}
	out, err = acc.Push(CounterSample{TimeNs: 2e9, Rates: rA.Rates, VoltageV: rA.VoltageV, FreqMHz: rA.FreqMHz})
	if err != nil {
		t.Fatalf("sample at the previous sample's time: %v", err)
	}
	if out.TotalJoules != j || out.Samples != 3 {
		t.Fatalf("equal-time sample: %v J after %d samples, want %v J after 3", out.TotalJoules, out.Samples, j)
	}
}
