package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// refitSample converts a dataset row to a streaming sample at the
// given timestamp.
func refitSample(r *acquisition.Row, t uint64) CounterSample {
	return CounterSample{TimeNs: t, Rates: r.Rates, VoltageV: r.VoltageV, FreqMHz: r.FreqMHz}
}

func TestRefitterMatchesBatchTrainOnWindow(t *testing.T) {
	// The serving-layer equivalence contract, end to end: after sliding
	// a refitting session across labelled dataset rows, its adapted
	// coefficients must match Train (the offline batch fit) on exactly
	// the rows left in the window — and again after a breakdown rebuild
	// has refactorized the window from its retained rows. The two
	// designs are the same rows bit for bit
	// (TestRefitterRowsAreDesignRows); the rest is
	// Givens-against-Householder rounding, within tol.
	_, full := fixtures(t)
	events := canonicalEvents()
	base, err := Train(full.Rows, events, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const window = 48
	s, err := NewStreamSessionRefit(base, 1, window)
	if err != nil {
		t.Fatal(err)
	}
	total := window + 37 // slide well past one window
	if total+1 > len(full.Rows) {
		t.Fatalf("fixture too small: %d rows", len(full.Rows))
	}
	push := func(i int) {
		t.Helper()
		if _, err := s.PushLabeled(refitSample(full.Rows[i], uint64(i)), full.Rows[i].PowerW); err != nil {
			t.Fatalf("push row %d: %v", i, err)
		}
	}
	// 6 events + 3 → 9 design columns: with fewer rows the window is
	// underdetermined and the frozen fit keeps serving.
	for i := 0; i < 8; i++ {
		push(i)
	}
	if v := s.ModelVersion(); v != 0 || s.model.Delta != base.Delta || !slices.Equal(s.model.Alpha, base.Alpha) {
		t.Fatalf("underdetermined window: version %d, adapted %+v, want version 0 and the frozen fit", v, s.model)
	}
	for i := 8; i < total; i++ {
		push(i)
	}
	if s.ModelVersion() == 0 {
		t.Fatal("no refresh after a full window of labelled samples")
	}
	matchTrain := func(stage string, rows []*acquisition.Row) {
		t.Helper()
		want, err := Train(rows, events, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := s.model
		const tol = 1e-7
		close := func(name string, g, w float64) {
			t.Helper()
			if math.Abs(g-w) > tol*(math.Abs(w)+1) {
				t.Errorf("%s: %s: refit %v, batch %v", stage, name, g, w)
			}
		}
		close("delta", got.Delta, want.Delta)
		close("beta", got.Beta, want.Beta)
		close("gamma", got.Gamma, want.Gamma)
		for i := range want.Alpha {
			close("alpha", got.Alpha[i], want.Alpha[i])
		}
	}
	matchTrain("slide", full.Rows[total-window:total])

	// The rebuild a downdate breakdown triggers, run directly: the
	// window drops its oldest row, and the next push fills the slot.
	s.refit.rebuildWithoutOldest()
	if rb := s.RefitRebuilds(); rb != 1 {
		t.Fatalf("rebuilds = %d, want 1", rb)
	}
	push(total)
	matchTrain("rebuild", full.Rows[total+1-window:total+1])
}

// TestRefitterRowsAreDesignRows streams every row of the five-P-state
// campaign into a window that holds them all and checks each ring row:
// after its leading 1 it is DesignMatrix's row for the same sample, bit
// for bit, then the label. So the window refits exactly the rows Train
// fits; a V²f computed another way differs in the last bit on about a
// quarter of operating points.
func TestRefitterRowsAreDesignRows(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	base, err := Train(full.Rows, events, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := newRefitter(base, len(full.Rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range full.Rows {
		rf.observe(refitSample(r, uint64(i)), r.PowerW)
	}
	x, y, err := DesignMatrix(full.Rows, events)
	if err != nil {
		t.Fatal(err)
	}
	cols := len(events) + 3
	for i := range full.Rows {
		ring := rf.ring[i*(cols+1):][:cols+1]
		if ring[0] != 1 || ring[cols] != y[i] {
			t.Fatalf("row %d: intercept %v, label %v; want 1, %v", i, ring[0], ring[cols], y[i])
		}
		for j := 0; j < cols-1; j++ {
			if got, want := ring[1+j], x.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d (%d MHz, %v V), column %d: window %v, DesignMatrix %v",
					i, full.Rows[i].FreqMHz, full.Rows[i].VoltageV, j, got, want)
			}
		}
	}
}

func TestRefitterKeepsBaseModelUntouched(t *testing.T) {
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta, beta, gamma := base.Delta, base.Beta, base.Gamma
	alpha := append([]float64(nil), base.Alpha...)
	s, err := NewStreamSessionRefit(base, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.PushLabeled(refitSample(full.Rows[i], uint64(i)), full.Rows[i].PowerW); err != nil {
			t.Fatal(err)
		}
	}
	if base.Delta != delta || base.Beta != beta || base.Gamma != gamma {
		t.Fatal("refit mutated the base model's scalar coefficients")
	}
	for i := range alpha {
		if base.Alpha[i] != alpha[i] {
			t.Fatal("refit mutated the base model's alpha")
		}
	}
	if s.model == base || &s.model.Alpha[0] == &base.Alpha[0] {
		t.Fatal("adapted model aliases the base model")
	}
}

func TestRefitterRejectsBadPower(t *testing.T) {
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamSessionRefit(base, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	cs := refitSample(full.Rows[0], 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		if _, err := s.PushLabeled(cs, bad); !errors.Is(err, ErrBadPower) {
			t.Fatalf("power %v: got %v, want ErrBadPower", bad, err)
		}
	}
	// Fed the same labels afterwards, the session must match a fresh
	// one bit for bit: no rejected label reached its window, and a
	// replay of one stream refreshes the same coefficients.
	fresh, err := NewStreamSessionRefit(base, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range full.Rows[:16] {
		for _, f := range []*StreamSession{s, fresh} {
			if _, err := f.PushLabeled(refitSample(r, uint64(i)), r.PowerW); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := s.model, fresh.model
	if fresh.ModelVersion() == 0 || s.ModelVersion() != fresh.ModelVersion() || got.Delta != want.Delta ||
		got.Beta != want.Beta || got.Gamma != want.Gamma || !slices.Equal(got.Alpha, want.Alpha) {
		t.Fatalf("rejected labels reached the window: refit %+v, fresh %+v", got, want)
	}
}

func TestRefitterWindowTooSmall(t *testing.T) {
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 events + 3 → 9 columns: any window ≤ 9 is underdetermined.
	for _, window := range []int{9, 1, -1} {
		if _, err := NewStreamSessionRefit(base, 1, window); err == nil {
			t.Fatalf("NewStreamSessionRefit accepted window %d for 9 design columns", window)
		}
	}
	if _, err := NewStreamSessionRefit(base, 1, 10); err != nil {
		t.Fatalf("window 10 for 9 design columns: %v", err)
	}
	if _, err := NewStreamSessionRefit(nil, 1, 64); err == nil {
		t.Fatal("NewStreamSessionRefit accepted a nil model")
	}
}

func TestRefitterObserveAllocFree(t *testing.T) {
	// The per-sample refit cost on the serving path: estimate, design
	// row, downdate and append, solve, in-place coefficient refresh —
	// all allocation free on a primed refitting session.
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamSessionRefit(base, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i++ {
		if _, err := s.PushLabeled(refitSample(full.Rows[i], uint64(i)), full.Rows[i].PowerW); err != nil {
			t.Fatal(err)
		}
	}
	v0 := s.ModelVersion()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		row := full.Rows[96+i%32]
		if _, err := s.PushLabeled(refitSample(row, uint64(1000+i)), row.PowerW); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state PushLabeled allocated %v times per run, want 0", allocs)
	}
	if s.ModelVersion() == v0 {
		t.Fatal("the gated pushes refreshed no coefficients")
	}
}

func TestStreamSessionRefitVersionsAndAdapts(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	// The fixture orders rows in contiguous frequency blocks, inside
	// which V and V²f are nearly constant — a window that sits inside
	// one block is ill-conditioned and the refit (rightly) extrapolates
	// badly outside it. Shuffle deterministically so every window spans
	// the operating range, as interleaved live telemetry would.
	rows := append([]*acquisition.Row(nil), full.Rows...)
	r := rng.New(17)
	for i := len(rows) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	// Train the base model on a *biased* target so refit has somewhere
	// to go: shift all training powers up by 5 W, then stream the true
	// rows. The frozen session keeps the bias; the refitting session
	// must shed it once the window fills.
	biased := make([]*acquisition.Row, len(rows))
	for i, row := range rows {
		c := *row
		c.PowerW += 5
		biased[i] = &c
	}
	base, err := Train(biased, events, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const window = 48
	frozen, err := NewStreamSession(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	adapting, err := NewStreamSessionRefit(base, 1, window)
	if err != nil {
		t.Fatal(err)
	}
	if !adapting.Refitting() || frozen.Refitting() {
		t.Fatal("Refitting flags wrong")
	}
	var lastFrozen, lastAdapting StreamEstimate
	var frozenBias, adaptBias float64 // mean signed error over the second window
	for i := 0; i < 2*window; i++ {
		cs := refitSample(rows[i], uint64(i))
		ef, err := frozen.PushLabeled(cs, rows[i].PowerW)
		if err != nil {
			t.Fatal(err)
		}
		ea, err := adapting.PushLabeled(cs, rows[i].PowerW)
		if err != nil {
			t.Fatal(err)
		}
		lastFrozen, lastAdapting = ef, ea
		if i >= window {
			frozenBias += (ef.InstantW - rows[i].PowerW) / window
			adaptBias += (ea.InstantW - rows[i].PowerW) / window
		}
	}
	if lastFrozen.ModelVersion != 0 {
		t.Fatalf("frozen session version %d, want 0", lastFrozen.ModelVersion)
	}
	if lastAdapting.ModelVersion == 0 {
		t.Fatal("adapting session never refreshed its model")
	}
	if adapting.ModelVersion() < lastAdapting.ModelVersion {
		t.Fatal("session ModelVersion went backwards")
	}
	// Averaged over the second window, the frozen session must still
	// carry most of the planted +5 W training bias while the adapting
	// one has refit it away.
	if frozenBias < 3 {
		t.Fatalf("frozen session lost the planted bias (mean bias %.3f W)", frozenBias)
	}
	// A 48-row window fit carries ~1 W of its own prequential error,
	// so demand the bias is mostly gone rather than exactly zero.
	if math.Abs(adaptBias) > 2 {
		t.Fatalf("adapting session kept %.3f W of the planted 5 W bias", adaptBias)
	}
	if math.Abs(adaptBias) > frozenBias/2 {
		t.Fatalf("adapting bias %.3f W not clearly below frozen bias %.3f W", adaptBias, frozenBias)
	}
}

// TestStreamSessionRefitTracksDrift feeds a refitting session labelled
// samples whose true power drifts to 15 % above the training fit, then
// three windows of one repeated design row (a singular window, the
// downdate-breakdown trigger), then recovery traffic. The sliding-window
// refit must track the drift where the frozen fit cannot, serve finite
// estimates through the degenerate window, and recover after it.
func TestStreamSessionRefitTracksDrift(t *testing.T) {
	_, full := fixtures(t)
	rows := full.Rows
	model, err := Train(rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		window = 48
		nDrift = 600
		drift  = 0.15
	)
	sess, err := NewStreamSessionRefit(model, 1, window)
	if err != nil {
		t.Fatal(err)
	}
	push := func(r *acquisition.Row, timeNs uint64, truth float64) float64 {
		t.Helper()
		est, err := sess.PushLabeled(refitSample(r, timeNs), truth)
		if err != nil {
			t.Fatalf("labelled push at %d ns: %v", timeNs, err)
		}
		if math.IsNaN(est.InstantW) || math.IsInf(est.InstantW, 0) {
			t.Fatalf("non-finite estimate %v at %d ns", est.InstantW, timeNs)
		}
		return est.InstantW
	}

	// The campaign rows come grouped by workload and frequency; fed in
	// that order a window covers one near-degenerate slice of the design
	// space. Shuffle so every window spans operating points, as
	// interleaved live traffic would.
	order := rng.New(7).Perm(len(rows))
	var lateTruth, latePred, lateFrozen []float64
	for i := 0; i < nDrift; i++ {
		r := rows[order[i%len(rows)]]
		truth := r.PowerW * (1 + drift*float64(i)/nDrift)
		w := push(r, uint64(i+1)*1e6, truth)
		if i >= nDrift*2/3 {
			lateTruth = append(lateTruth, truth)
			latePred = append(latePred, w)
			lateFrozen = append(lateFrozen, model.Predict(r))
		}
	}
	if sess.ModelVersion() == 0 {
		t.Fatal("model version still 0: streaming refit never refreshed")
	}
	refit, frozen := stats.MAPE(lateTruth, latePred), stats.MAPE(lateTruth, lateFrozen)
	if refit >= frozen {
		t.Fatalf("late refit MAPE %.2f%% not better than frozen %.2f%%", refit, frozen)
	}
	if refit >= 8 {
		t.Fatalf("late refit MAPE %.2f%% >= 8%%", refit)
	}

	// One identical design row fills the window: the factorization goes
	// singular, downdates of departing rows break down, and the refitter
	// must keep serving the last solvable coefficients throughout.
	for i := 0; i < 3*window; i++ {
		push(rows[0], uint64(nDrift+i+1)*1e6, rows[0].PowerW*(1+drift))
	}
	if sess.RefitRebuilds() == 0 {
		t.Fatal("the degenerate window forced no refactorization")
	}

	order = rng.New(11).Perm(len(rows))
	base := nDrift + 3*window
	var recTruth, recPred []float64
	for i := 0; i < 150; i++ {
		r := rows[order[i%len(rows)]]
		truth := r.PowerW * (1 + drift)
		w := push(r, uint64(base+i+1)*1e6, truth)
		if i >= 50 { // let the window flush the degenerate rows
			recTruth = append(recTruth, truth)
			recPred = append(recPred, w)
		}
	}
	if m := stats.MAPE(recTruth, recPred); m >= 8 {
		t.Fatalf("post-breakdown MAPE %.2f%% >= 8%%", m)
	}
}

// TestStreamSessionTracksGovernorFlap drives the acquisition → fit →
// estimate chain through a thermal-throttle-shaped frequency ramp:
// fresh workload executions at P-states flapping across all five,
// counters projected to rates and streamed through a frozen session,
// scored against the simulator's ground-truth node power.
func TestStreamSessionTracksGovernorFlap(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	model, err := Train(full.Rows, events, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := pmu.NewEventSet(events...)
	if err != nil {
		t.Fatal(err)
	}
	platform := cpusim.HaswellEP()
	exec := cpusim.NewExecutor(platform)
	groundTruth := power.DefaultModel()
	sess, err := NewStreamSession(model, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	flaps := []int{1200, 2600, 1600, 2400, 1200, 2000, 2600, 1200}
	specs := []struct {
		wl      string
		threads int
	}{
		{"compute", 24}, {"md", 24}, {"memory_read", 24}, {"idle", 1},
	}
	rnd := rng.New(7)
	seen := map[int]bool{}
	var truth, pred []float64
	var timeNs uint64
	for si, f := range flaps {
		for wi, sp := range specs {
			act, err := exec.Execute(cpusim.RunConfig{
				Workload:  workloads.MustByName(sp.wl),
				FreqMHz:   f,
				Threads:   sp.threads,
				DurationS: 0.25,
			}, rnd.Split(uint64(si*len(specs)+wi)))
			if err != nil {
				t.Fatal(err)
			}
			gt, err := groundTruth.NodePower(platform, act)
			if err != nil {
				t.Fatal(err)
			}
			counts := cpusim.Counters(act, set)
			rates := make(map[pmu.EventID]float64, len(counts))
			for id, v := range counts {
				rates[id] = v / act.DurationS
			}
			timeNs += 250e6
			est, err := sess.Push(CounterSample{TimeNs: timeNs, FreqMHz: f, VoltageV: act.CoreVoltageV, Rates: rates})
			if err != nil {
				t.Fatalf("push at %d MHz (%s): %v", f, sp.wl, err)
			}
			if math.IsNaN(est.InstantW) || math.IsInf(est.InstantW, 0) {
				t.Fatalf("non-finite estimate %v at %d MHz (%s)", est.InstantW, f, sp.wl)
			}
			seen[f] = true
			truth = append(truth, gt.TotalW)
			pred = append(pred, est.InstantW)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("ramp visited %d distinct P-states, want 5", len(seen))
	}
	if m := stats.MAPE(truth, pred); m >= 15 {
		t.Fatalf("ramp MAPE %.2f%% >= 15%%", m)
	}
}

func TestStreamSessionPushLabeledRejectsBadPower(t *testing.T) {
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamSessionRefit(base, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PushLabeled(refitSample(full.Rows[0], 1), math.NaN()); !errors.Is(err, ErrBadPower) {
		t.Fatalf("NaN power: got %v, want ErrBadPower", err)
	}
	if _, samples := s.Totals(); samples != 0 {
		t.Fatal("rejected labelled sample mutated session state")
	}
	// A frozen session ignores the label entirely — NaN included.
	f, err := NewStreamSession(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PushLabeled(refitSample(full.Rows[0], 1), math.NaN()); err != nil {
		t.Fatalf("frozen PushLabeled: %v", err)
	}
}

func TestStreamSessionRefitZeroWindowIsFrozen(t *testing.T) {
	_, full := fixtures(t)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamSessionRefit(base, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Refitting() {
		t.Fatal("window 0 produced a refitting session")
	}
}

// BenchmarkStreamSessionPushLabeledRefit measures what one labelled
// sample costs a primed refitting session at the serving shape (6
// events, so 9 design columns, and a 256-sample window): the estimate,
// then the window's downdate, append, solve and coefficient refresh.
func BenchmarkStreamSessionPushLabeledRefit(b *testing.B) {
	_, full := fixtures(b)
	base, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStreamSessionRefit(base, 1, 256)
	if err != nil {
		b.Fatal(err)
	}
	// Shuffled, so every window spans the operating points.
	order := rng.New(1).Perm(len(full.Rows))
	push := func(i int) {
		r := full.Rows[order[i%len(order)]]
		if _, err := s.PushLabeled(refitSample(r, uint64(i)), r.PowerW); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(512 + i)
	}
}
