package experiments

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"pmcpower/internal/workloads"
)

// One shared context per test binary: the pipeline dominates the
// runtime and every experiment is deterministic.
var sharedCtx = sync.OnceValues(func() (*Context, error) {
	return NewContext(context.Background(), DefaultConfig())
})

func testCtx(t *testing.T) *Context {
	t.Helper()
	c, err := sharedCtx()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestE1TableI(t *testing.T) {
	rows := testCtx(t).TableI()
	if len(rows) != 6 {
		t.Fatalf("Table I has %d rows, want 6", len(rows))
	}
	// Paper shape: first counter alone reaches R² ≈ 0.7–0.85; six
	// counters ≥ 0.95; mean VIF of the final set below the problem
	// threshold of 10.
	if rows[0].R2 < 0.6 || rows[0].R2 > 0.9 {
		t.Fatalf("first counter R² = %.3f", rows[0].R2)
	}
	if !math.IsNaN(rows[0].MeanVIF) {
		t.Fatal("first row VIF must be n/a")
	}
	if rows[5].R2 < 0.95 {
		t.Fatalf("six-counter R² = %.3f", rows[5].R2)
	}
	if rows[5].MeanVIF >= 10 {
		t.Fatalf("six-counter mean VIF = %.2f, must stay below 10", rows[5].MeanVIF)
	}
	// The cycle counter — central to the paper's normalization — must
	// be among the six.
	found := false
	for _, r := range rows {
		if r.Counter == "TOT_CYC" {
			found = true
		}
	}
	if !found {
		t.Fatal("TOT_CYC missing from the selected set")
	}
}

func TestE2Fig2(t *testing.T) {
	pts := testCtx(t).Fig2()
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.NumCounters != i+1 {
			t.Fatal("x axis must count counters")
		}
		if p.AdjR2 > p.R2 {
			t.Fatalf("Adj.R² above R² at %d counters", p.NumCounters)
		}
		if i > 0 && p.R2 < pts[i-1].R2 {
			t.Fatal("R² trajectory must be non-decreasing")
		}
	}
}

func TestE3TableII(t *testing.T) {
	tab := testCtx(t).TableIIResult()
	// Paper regime: R² high and tight across folds, MAPE mid single
	// digits.
	if tab.R2.Mean < 0.9 || tab.R2.Max > 1 {
		t.Fatalf("CV R² %+v", tab.R2)
	}
	if tab.R2.Min > tab.R2.Mean || tab.R2.Mean > tab.R2.Max {
		t.Fatal("summary ordering broken")
	}
	if tab.MAPE.Mean < 3 || tab.MAPE.Mean > 12 {
		t.Fatalf("CV MAPE mean %.2f%% outside paper regime (7.54%%)", tab.MAPE.Mean)
	}
	if tab.AdjR2.Mean >= tab.R2.Mean {
		t.Fatal("Adj.R² must be slightly below R²")
	}
	// "the mean Adj.R² ... is only 0.0004 lower than the respective R²
	// value" — ours must also be very close.
	if tab.R2.Mean-tab.AdjR2.Mean > 0.01 {
		t.Fatalf("Adj.R² gap %.4f too large", tab.R2.Mean-tab.AdjR2.Mean)
	}
}

func TestE4Fig3(t *testing.T) {
	bars, err := testCtx(t).Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's figure shows 16 workloads.
	if len(bars) != 16 {
		t.Fatalf("Figure 3 has %d bars, want 16", len(bars))
	}
	var spec, synth int
	for _, b := range bars {
		if b.MAPE <= 0 || b.MAPE > 40 {
			t.Fatalf("%s MAPE %.2f%% implausible", b.Workload, b.MAPE)
		}
		if b.Class == workloads.SPEC {
			spec++
		} else {
			synth++
		}
	}
	if spec != 10 || synth != 6 {
		t.Fatalf("bar composition %d SPEC + %d synthetic, want 10+6", spec, synth)
	}
}

func TestE5Fig4Ordering(t *testing.T) {
	bars, err := testCtx(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 4 {
		t.Fatalf("%d scenarios", len(bars))
	}
	m := map[int]float64{}
	for _, b := range bars {
		m[b.Scenario] = b.MAPE
	}
	// The paper's qualitative result: scenario 2 is the worst,
	// scenario 4 the best, scenario 3 in the single digits.
	if !(m[2] > m[3] && m[2] > m[4]) {
		t.Fatalf("scenario 2 (%.2f%%) must be worst: %v", m[2], m)
	}
	if !(m[4] <= m[3]) {
		t.Fatalf("scenario 4 (%.2f%%) must be best-or-equal vs scenario 3 (%.2f%%)", m[4], m[3])
	}
	if m[3] > 12 {
		t.Fatalf("scenario 3 MAPE %.2f%% too high", m[3])
	}
	// Scenario 1 (four training workloads) must be clearly worse than
	// full CV; its exact value is draw-dominated (see the
	// Scenario1Spread extension), so only bound it loosely.
	if m[1] <= m[3] {
		t.Fatalf("scenario 1 (%.2f%%) cannot beat full CV (%.2f%%)", m[1], m[3])
	}
	if m[1] > 100 {
		t.Fatalf("scenario 1 (%.2f%%) implausible for the canonical draw", m[1])
	}
}

func TestE6E7Fig5(t *testing.T) {
	c := testCtx(t)
	a, err := c.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	b := c.Fig5b()
	// 5a: SPEC rows only (10 workloads × 5 freqs).
	if len(a) != 50 {
		t.Fatalf("Fig 5a has %d points, want 50", len(a))
	}
	// 5b: every experiment once.
	if len(b) != len(c.fullDS.Rows) {
		t.Fatalf("Fig 5b has %d points, want %d", len(b), len(c.fullDS.Rows))
	}
	// Figure 5a must show larger scatter than 5b on the same rows.
	mapeOf := func(preds []struct{ a, p float64 }) float64 {
		var s float64
		for _, x := range preds {
			s += math.Abs(x.a-x.p) / x.a
		}
		return 100 * s / float64(len(preds))
	}
	var pa, pb []struct{ a, p float64 }
	for _, p := range a {
		pa = append(pa, struct{ a, p float64 }{p.Actual, p.Predicted})
	}
	for _, p := range b {
		if p.Row.Class == workloads.SPEC {
			pb = append(pb, struct{ a, p float64 }{p.Actual, p.Predicted})
		}
	}
	if mapeOf(pa) <= mapeOf(pb) {
		t.Fatalf("scenario-2 scatter (%.2f%%) must exceed CV scatter (%.2f%%) on SPEC rows", mapeOf(pa), mapeOf(pb))
	}
}

func TestE8TableIII(t *testing.T) {
	rows := testCtx(t).TableIII()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.PCC) || r.PCC < -1 || r.PCC > 1 {
			t.Fatalf("%s PCC = %v", r.Counter, r.PCC)
		}
	}
	// The paper's observation: the selected counters are mostly NOT
	// strongly correlated with power — at most two may exceed 0.8.
	strong := 0
	for _, r := range rows {
		if math.Abs(r.PCC) > 0.8 {
			strong++
		}
	}
	if strong > 2 {
		t.Fatalf("%d of 6 selected counters strongly correlated with power — selection should pick complementary counters", strong)
	}
}

func TestE9Fig6(t *testing.T) {
	rows := testCtx(t).Fig6()
	if len(rows) != 54 {
		t.Fatalf("Figure 6 has %d bars, want 54", len(rows))
	}
	// Sorted descending with NaNs last.
	seenNaN := false
	for i, r := range rows {
		if math.IsNaN(r.PCC) {
			seenNaN = true
			continue
		}
		if seenNaN {
			t.Fatal("non-NaN PCC after NaN block")
		}
		if i > 0 && !math.IsNaN(rows[i-1].PCC) && r.PCC > rows[i-1].PCC {
			t.Fatal("Figure 6 not sorted")
		}
	}
	// The spread matters: strong positives exist, and some counters
	// are essentially uncorrelated.
	if rows[0].PCC < 0.7 {
		t.Fatalf("strongest PCC only %.2f", rows[0].PCC)
	}
	var weak bool
	for _, r := range rows {
		if !math.IsNaN(r.PCC) && math.Abs(r.PCC) < 0.1 {
			weak = true
		}
	}
	if !weak {
		t.Fatal("no weakly-correlated counters — Figure 6 spread missing")
	}
}

func TestE10TableIV(t *testing.T) {
	c := testCtx(t)
	t4, err := c.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	t1 := c.TableI()
	if len(t4) != 6 {
		t.Fatalf("%d rows", len(t4))
	}
	// The paper's point: selecting on synthetic-only data yields a
	// different counter set.
	diff := 0
	in1 := map[string]bool{}
	for _, r := range t1 {
		in1[r.Counter] = true
	}
	for _, r := range t4 {
		if !in1[r.Counter] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("synthetic-only selection must differ from the all-workload selection")
	}
	// And its multicollinearity is worse at the tail (Table IV: VIF
	// 8.98/13.6 at counters 5/6 vs ≤1.79 in Table I).
	if t4[5].MeanVIF <= t1[5].MeanVIF {
		t.Fatalf("synthetic-only tail VIF (%.2f) must exceed all-workload VIF (%.2f)",
			t4[5].MeanVIF, t1[5].MeanVIF)
	}
}

func TestE11ExtendedSelection(t *testing.T) {
	ext, err := testCtx(t).ExtendedSelection(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != 11 {
		t.Fatalf("%d rows", len(ext.Rows))
	}
	// Within six counters the VIF stays low; extending eventually
	// explodes it past the threshold — the paper's CA_SNP story.
	if ext.Rows[5].MeanVIF > ext.Threshold {
		t.Fatal("canonical six already above threshold")
	}
	if ext.ExplodeAt == 0 {
		t.Fatal("extended selection must eventually explode the VIF")
	}
	if ext.ExplodeAt <= 6 {
		t.Fatalf("explosion at %d within the canonical six", ext.ExplodeAt)
	}
}

func TestE12Ablations(t *testing.T) {
	c := testCtx(t)
	rate, err := c.AblationRateNormalization()
	if err != nil {
		t.Fatal(err)
	}
	// Per-cycle rates must have (much) lower VIF than per-second rates
	// — the reason the paper normalizes.
	if rate.Default >= rate.Variant {
		t.Fatalf("per-cycle VIF (%.2f) must be below per-second VIF (%.2f)", rate.Default, rate.Variant)
	}
	hcse, err := c.AblationHCSE()
	if err != nil {
		t.Fatal(err)
	}
	// HC3 must inflate SEs relative to HC0 under heteroscedasticity.
	if hcse.Default <= hcse.Variant {
		t.Fatalf("HC3 mean SE (%.4g) must exceed HC0 (%.4g)", hcse.Default, hcse.Variant)
	}
	cyc, err := c.AblationCycleInit()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "neither improves nor worsens ... significantly".
	if math.Abs(cyc.Default-cyc.Variant) > 0.05 {
		t.Fatalf("cycle-init changes final R² too much: %.4f vs %.4f", cyc.Default, cyc.Variant)
	}
}

func TestScenario1Spread(t *testing.T) {
	s, err := testCtx(t).Scenario1Spread(6)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 6 {
		t.Fatalf("spread over %d draws", s.N)
	}
	// The draw sensitivity is large — that's the finding.
	if s.Max < 2*s.Min {
		t.Fatalf("scenario-1 spread suspiciously tight: %+v", s)
	}
}

func TestE13Baselines(t *testing.T) {
	rows, err := testCtx(t).Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d baseline rows", len(rows))
	}
	get := func(substr string) BaselineRow {
		for _, r := range rows {
			if strings.Contains(r.Model, substr) {
				return r
			}
		}
		t.Fatalf("baseline %q missing", substr)
		return BaselineRow{}
	}
	eq1 := get("Equation 1")
	rod := get("Rodrigues")
	cyc := get("cycles-only")
	pfl := get("per-frequency")

	// The paper's model must beat the fixed-counter baselines on the
	// holdout. (Per-frequency linear may win in-distribution — it
	// spends one full model per DVFS state — but see transfer below.)
	for _, b := range []BaselineRow{rod, cyc} {
		if eq1.HoldoutMAPE >= b.HoldoutMAPE {
			t.Fatalf("Equation 1 (%.2f%%) must beat %s (%.2f%%) on holdout",
				eq1.HoldoutMAPE, b.Model, b.HoldoutMAPE)
		}
	}
	// The decisive comparison: trained at one frequency, Equation 1's
	// V²f/V physics transfer to unseen DVFS states; the physics-free
	// baselines collapse.
	if eq1.TransferMAPE >= rod.TransferMAPE || eq1.TransferMAPE >= pfl.TransferMAPE {
		t.Fatalf("Equation 1 transfer (%.2f%%) must beat Rodrigues (%.2f%%) and per-frequency (%.2f%%)",
			eq1.TransferMAPE, rod.TransferMAPE, pfl.TransferMAPE)
	}
	if pfl.TransferMAPE < 2*pfl.HoldoutMAPE {
		t.Fatalf("per-frequency transfer (%.2f%%) should degrade sharply vs holdout (%.2f%%)",
			pfl.TransferMAPE, pfl.HoldoutMAPE)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	c := testCtx(t)
	renderers := map[string]func() (string, error){
		"table1":    c.RenderTableI,
		"fig2":      c.RenderFig2,
		"table2":    c.RenderTableII,
		"fig3":      c.RenderFig3,
		"fig4":      c.RenderFig4,
		"fig5a":     c.RenderFig5a,
		"fig5b":     c.RenderFig5b,
		"table3":    c.RenderTableIII,
		"fig6":      c.RenderFig6,
		"table4":    c.RenderTableIV,
		"seventh":   func() (string, error) { return c.RenderSeventh(11) },
		"ablations": c.RenderAblations,
		"baselines": c.RenderBaselines,
	}
	for name, fn := range renderers {
		out, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(strings.TrimSpace(out)) == 0 {
			t.Fatalf("%s produced empty output", name)
		}
		if strings.Contains(out, "%!") {
			t.Fatalf("%s contains a formatting bug:\n%s", name, out)
		}
	}
}

func TestContextConcurrentAccess(t *testing.T) {
	// The context documents itself as safe for concurrent use; hammer
	// the experiments that read its shared pipeline from several
	// goroutines, under the race detector in CI.
	c := testCtx(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			var err error
			switch i % 4 {
			case 0:
				_ = c.TableI()
			case 1:
				_ = c.TableIII()
			case 2:
				_, err = c.Fig3()
			case 3:
				_, err = c.Fig5a()
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
