package phaseprofile

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"pmcpower/internal/pmu"
	"pmcpower/internal/trace"
)

// buildTrace writes a two-phase archive with power/voltage/threads
// metrics and one PMC metric.
func buildTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	loc, _ := w.DefineLocation("master")
	regA, _ := w.DefineRegion("phaseA@4")
	regB, _ := w.DefineRegion("phaseB@8")
	thr, _ := w.DefineMetric(MetricThreads, "threads", trace.MetricSync)
	frq, _ := w.DefineMetric(MetricFreq, "MHz", trace.MetricSync)
	pow, _ := w.DefineMetric(MetricPower, "W", trace.MetricAsync)
	vlt, _ := w.DefineMetric(MetricVoltage, "V", trace.MetricAsync)
	pmc, _ := w.DefineMetric("PAPI_TOT_CYC", "events/s", trace.MetricAsync)
	other, _ := w.DefineMetric("unrelated_metric", "?", trace.MetricAsync)

	ev := func(e trace.Event) {
		t.Helper()
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	// Phase A: [0, 1e9) ns, threads 4, power samples 100 and 110.
	ev(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 0, Region: regA})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 0, Metric: thr, Value: 4})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 0, Metric: frq, Value: 2400})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 100, Metric: pow, Value: 100})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 200, Metric: vlt, Value: 0.99})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 300, Metric: pmc, Value: 2.4e9})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 350, Metric: other, Value: 777})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 400, Metric: pow, Value: 110})
	ev(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 1_000_000_000, Region: regA})
	// Inter-phase sample: must be discarded.
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 1_100_000_000, Metric: pow, Value: 9999})
	// Phase B: [2e9, 3e9) ns, threads 8.
	ev(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 2_000_000_000, Region: regB})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 2_000_000_000, Metric: thr, Value: 8})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 2_000_000_000, Metric: frq, Value: 2400})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 2_000_000_100, Metric: pow, Value: 150})
	ev(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 3_000_000_000, Region: regB})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestFromTrace(t *testing.T) {
	phases, err := FromTrace(buildTrace(t), "demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	a := phases[0]
	if a.App != "demo" || a.Region != "phaseA@4" || a.Threads != 4 || a.FreqMHz != 2400 {
		t.Fatalf("phase A header wrong: %+v", a)
	}
	if a.DurationS() != 1 {
		t.Fatalf("phase A duration %v", a.DurationS())
	}
	if a.PowerW != 105 { // mean of 100 and 110 — 9999 between phases discarded
		t.Fatalf("phase A power = %v, want 105", a.PowerW)
	}
	if a.VoltageV != 0.99 {
		t.Fatalf("phase A voltage = %v", a.VoltageV)
	}
	cyc := pmu.MustByName("TOT_CYC").ID
	if r, ok := a.Rates[cyc]; !ok || r != 2.4e9 {
		t.Fatalf("phase A TOT_CYC rate = %v", a.Rates[cyc])
	}
	b := phases[1]
	if b.Threads != 8 || b.PowerW != 150 {
		t.Fatalf("phase B wrong: %+v", b)
	}
}

func TestFromTraceRejectsMalformed(t *testing.T) {
	// Nested Enter.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	loc, _ := w.DefineLocation("m")
	reg, _ := w.DefineRegion("r")
	_ = w.WriteEvent(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 0, Region: reg})
	_ = w.WriteEvent(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 1, Region: reg})
	_ = w.Close()
	if _, err := FromTrace(&buf, "x"); err == nil {
		t.Fatal("nested Enter must be rejected")
	}

	// Leave without Enter.
	buf.Reset()
	w = trace.NewWriter(&buf)
	loc, _ = w.DefineLocation("m")
	reg, _ = w.DefineRegion("r")
	_ = w.WriteEvent(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 5, Region: reg})
	_ = w.Close()
	if _, err := FromTrace(&buf, "x"); err == nil {
		t.Fatal("Leave without Enter must be rejected")
	}

	// Unterminated phase.
	buf.Reset()
	w = trace.NewWriter(&buf)
	loc, _ = w.DefineLocation("m")
	reg, _ = w.DefineRegion("r")
	_ = w.WriteEvent(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 0, Region: reg})
	_ = w.Close()
	if _, err := FromTrace(&buf, "x"); err == nil {
		t.Fatal("trace ending inside a phase must be rejected")
	}
}

// TestFromTraceRejectsTimeGoingBack: timestamps are delta-encoded per
// location, so an archive can decode to events that go back in time
// across locations. The Writer never writes one; FromTrace rejects it
// with the Writer's order error.
func TestFromTraceRejectsTimeGoingBack(t *testing.T) {
	// Two locations, one region and one power metric.
	header := append([]byte(trace.Magic), 2, 0, 0, 1, 0, 1)
	header = append(header, byte(len("socket0_power")))
	header = append(header, "socket0_power"...)
	header = append(header, 0, byte(trace.MetricAsync))
	archive := func(thirdDelta uint64) []byte {
		b := append([]byte(nil), header...)
		b = append(b, byte(trace.KindEnter), 0, 0, 0)
		for _, s := range []struct{ loc, delta uint64 }{{1, 100}, {0, thirdDelta}} {
			b = append(b, byte(trace.KindMetric))
			b = binary.AppendUvarint(b, s.loc)
			b = binary.AppendUvarint(b, s.delta)
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		}
		b = append(b, byte(trace.KindLeave), 0)
		b = binary.AppendUvarint(b, 150)
		return append(b, 0)
	}
	_, err := FromTrace(bytes.NewReader(archive(50)), "x")
	if err == nil || !strings.Contains(err.Error(), "event at 50 ns violates chronological order (last 100 ns)") {
		t.Fatalf("location 0 at 50 ns after location 1 at 100 ns: error %v, want the order error", err)
	}
	if phases, err := FromTrace(bytes.NewReader(archive(100)), "x"); err != nil || len(phases) != 1 {
		t.Fatalf("the same archive in time order: %d phases, %v", len(phases), err)
	}
}

func TestCombineRuns(t *testing.T) {
	cyc := pmu.MustByName("TOT_CYC").ID
	msp := pmu.MustByName("BR_MSP").ID
	prf := pmu.MustByName("PRF_DM").ID

	run1 := []*Phase{{
		App: "w", Region: "r@4", Threads: 4, FreqMHz: 2400,
		StartNs: 0, EndNs: 1e9,
		PowerW: 100, VoltageV: 0.98,
		Rates: map[pmu.EventID]float64{cyc: 1e9, msp: 5e6},
	}}
	run2 := []*Phase{{
		App: "w", Region: "r@4", Threads: 4, FreqMHz: 2400,
		StartNs: 0, EndNs: 1e9,
		PowerW: 104, VoltageV: 1.00,
		Rates: map[pmu.EventID]float64{cyc: 1.1e9, prf: 3e6},
	}}
	merged, err := CombineRuns(run1, run2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 {
		t.Fatalf("got %d merged phases, want 1", len(merged))
	}
	m := merged[0]
	if m.PowerW != 102 {
		t.Fatalf("merged power = %v, want mean 102", m.PowerW)
	}
	if math.Abs(m.VoltageV-0.99) > 1e-12 {
		t.Fatalf("merged voltage = %v, want 0.99", m.VoltageV)
	}
	// Fixed counter measured in both runs → averaged.
	if math.Abs(m.Rates[cyc]-1.05e9) > 1 {
		t.Fatalf("merged TOT_CYC = %v, want 1.05e9", m.Rates[cyc])
	}
	// Programmable counters measured once each → union.
	if m.Rates[msp] != 5e6 || m.Rates[prf] != 3e6 {
		t.Fatalf("merged rates missing union: %v", m.Rates)
	}
}

func TestCombineRunsMergesByPosition(t *testing.T) {
	run := func(power float64) []*Phase {
		return []*Phase{
			{App: "w", Region: "r@8", Threads: 8, FreqMHz: 2400, StartNs: 0, EndNs: 1e9, PowerW: power},
			{App: "w", Region: "r@4", Threads: 4, FreqMHz: 2400, StartNs: 1e9, EndNs: 2e9, PowerW: power + 50},
		}
	}
	merged, err := CombineRuns(run(100), run(110))
	if err != nil {
		t.Fatal(err)
	}
	// Phase i of each run merges into phase i, in recording order.
	if len(merged) != 2 || merged[0].Region != "r@8" || merged[1].Region != "r@4" {
		t.Fatalf("merged phases %v, want r@8 then r@4", merged)
	}
	if merged[0].PowerW != 105 || merged[1].PowerW != 155 {
		t.Fatalf("merged power %v, %v, want 105, 155", merged[0].PowerW, merged[1].PowerW)
	}

	// Runs whose phases do not line up are refused.
	mismatches := map[string]func(p []*Phase) []*Phase{
		"count":   func(p []*Phase) []*Phase { return p[:1] },
		"app":     func(p []*Phase) []*Phase { p[1].App = "v"; return p },
		"region":  func(p []*Phase) []*Phase { p[1].Region = "r@2"; return p },
		"threads": func(p []*Phase) []*Phase { p[1].Threads = 2; return p },
		"freq":    func(p []*Phase) []*Phase { p[1].FreqMHz = 1200; return p },
		"order":   func(p []*Phase) []*Phase { return []*Phase{p[1], p[0]} },
	}
	for name, mangle := range mismatches {
		if _, err := CombineRuns(run(100), mangle(run(110))); err == nil {
			t.Errorf("%s: runs that do not line up were merged", name)
		}
	}
}

func TestFromTraceRejectsPhaseWithoutPowerSamples(t *testing.T) {
	// A trace whose metric table defines power channels but whose
	// phase window caught no power sample must be rejected — recording
	// it as a 0 W observation would poison the regression.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	loc, _ := w.DefineLocation("master")
	regA, _ := w.DefineRegion("withPower")
	regB, _ := w.DefineRegion("noPower")
	thr, _ := w.DefineMetric(MetricThreads, "threads", trace.MetricSync)
	frq, _ := w.DefineMetric(MetricFreq, "MHz", trace.MetricSync)
	pow, _ := w.DefineMetric("socket0_power", "W", trace.MetricAsync)
	ev := func(e trace.Event) {
		t.Helper()
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	// Phase A samples power normally.
	ev(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 0, Region: regA})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 0, Metric: thr, Value: 4})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 0, Metric: frq, Value: 2400})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 100, Metric: pow, Value: 95})
	ev(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 1_000_000_000, Region: regA})
	// Phase B is too short to catch a single power sample.
	ev(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 2_000_000_000, Region: regB})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 2_000_000_000, Metric: thr, Value: 4})
	ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 2_000_000_000, Metric: frq, Value: 2400})
	ev(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 2_000_000_500, Region: regB})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := FromTrace(&buf, "x")
	if err == nil {
		t.Fatal("phase without power samples must be rejected")
	}
	if !strings.Contains(err.Error(), "noPower") {
		t.Fatalf("error must name the offending phase, got: %v", err)
	}
}

func TestFromTraceAllowsTracesWithoutPowerChannels(t *testing.T) {
	// Traces that define no power channel at all (e.g. counter-only
	// auxiliary runs) are still valid — only a defined-but-unsampled
	// power channel is an error.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	loc, _ := w.DefineLocation("master")
	reg, _ := w.DefineRegion("r")
	thr, _ := w.DefineMetric(MetricThreads, "threads", trace.MetricSync)
	_ = w.WriteEvent(trace.Event{Kind: trace.KindEnter, Location: loc, TimeNs: 0, Region: reg})
	_ = w.WriteEvent(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: 0, Metric: thr, Value: 2})
	_ = w.WriteEvent(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 1_000_000, Region: reg})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	phases, err := FromTrace(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || phases[0].PowerW != 0 {
		t.Fatalf("power-less trace must parse with 0 W: %+v", phases)
	}
}

// TestAddStridedMatchesAdds: AddStrided folds values[0],
// values[stride], … exactly as one add per value in that order would,
// bit for bit, for every kind of Target: a power channel, a voltage and
// a PMC cell, the threads and frequency annotations, and the zero
// Target. An empty block touches nothing, and a block outside a phase
// is discarded.
func TestAddStridedMatchesAdds(t *testing.T) {
	w := trace.NewWriter(nil)
	loc, _ := w.DefineLocation("master")
	core, _ := w.DefineLocation("core 0")
	reg, _ := w.DefineRegion("phase@2")
	var metrics []trace.Ref
	for _, name := range []string{"socket0_power", MetricVoltage, "PAPI_TOT_CYC", MetricThreads, MetricFreq} {
		ref, _ := w.DefineMetric(name, "", trace.MetricAsync)
		metrics = append(metrics, ref)
	}
	// Sums that depend on the order of their terms, and integral values
	// where an annotation is picked.
	values := []float64{0.1, 1e16, 24, -1e16, 0.3, 2400, 7, 1e16, 2, -1e16, 12, 0.5}

	for _, stride := range []int{1, 2, 3, 5, 12, 13} {
		for off := 0; off < min(stride, 3); off++ {
			var phases [2]*Phase
			for side := range phases {
				b := NewBuilder(w.Definitions(), "app")
				var targets []Target
				for _, m := range metrics {
					tg, err := b.Resolve(m, core)
					if err != nil {
						t.Fatal(err)
					}
					targets = append(targets, tg)
				}
				idle, err := b.Resolve(metrics[1], loc) // a voltage cell that gets no values
				if err != nil {
					t.Fatal(err)
				}
				targets = append(targets, Target{})
				fold := func() {
					for _, tg := range targets {
						if side == 0 {
							b.AddStrided(tg, values[off:], stride)
							continue
						}
						for i := off; i < len(values); i += stride {
							b.add(tg, values[i])
						}
					}
				}
				fold() // before the phase: discarded
				if err := b.Event(trace.Event{Kind: trace.KindEnter, Location: loc, Region: reg}); err != nil {
					t.Fatal(err)
				}
				fold()
				if side == 0 {
					b.AddStrided(idle, nil, stride)
				}
				if err := b.Event(trace.Event{Kind: trace.KindLeave, Location: loc, TimeNs: 1000, Region: reg}); err != nil {
					t.Fatal(err)
				}
				ph, err := b.Phases()
				if err != nil {
					t.Fatal(err)
				}
				phases[side] = ph[0]
			}
			got, want := phases[0], phases[1]
			if math.Float64bits(got.PowerW) != math.Float64bits(want.PowerW) ||
				math.Float64bits(got.VoltageV) != math.Float64bits(want.VoltageV) ||
				len(got.Rates) != 1 || len(want.Rates) != 1 ||
				math.Float64bits(got.Rates[pmu.MustByName("TOT_CYC").ID]) != math.Float64bits(want.Rates[pmu.MustByName("TOT_CYC").ID]) ||
				got.Threads != want.Threads || got.FreqMHz != want.FreqMHz {
				t.Errorf("stride %d from %d: AddStrided gives %+v, single adds %+v", stride, off, got, want)
			}
		}
	}
}

// TestBuilderResetKeepsTargets: Reset keeps a Builder's Targets for a
// run that names the same metrics, in the same order, and starts from
// nothing for one that does not. Either way the run's phases have the
// bits a fresh Builder gives, and nothing an earlier run left behind,
// an aborted one included, leaks into them.
func TestBuilderResetKeepsTargets(t *testing.T) {
	same := func(a, b *Phase) bool {
		bits := math.Float64bits
		if a.App != b.App || a.Region != b.Region || a.Threads != b.Threads || a.FreqMHz != b.FreqMHz ||
			a.StartNs != b.StartNs || a.EndNs != b.EndNs || bits(a.PowerW) != bits(b.PowerW) ||
			bits(a.VoltageV) != bits(b.VoltageV) || len(a.Rates) != len(b.Rates) {
			return false
		}
		for id, r := range a.Rates {
			if rb, ok := b.Rates[id]; !ok || bits(r) != bits(rb) {
				return false
			}
		}
		return true
	}
	events := func(archive []byte) (*trace.Definitions, []trace.Event) {
		tr, err := trace.NewReader(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		var evs []trace.Event
		for {
			ev, err := tr.Next()
			if err == io.EOF {
				return tr.Definitions(), evs
			}
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
	}
	recorder := [][]byte{
		recorderArchive(t, 9, []trace.Ref{1, 2, 3, 4}, 10),
		recorderArchive(t, 9, []trace.Ref{8, 7}, 3),
		recorderArchive(t, 12, []trace.Ref{5, 11, 1}, 7),
	}
	other := buildTrace(t).Bytes()
	var b *Builder
	var vlt Target
	for i, c := range []struct {
		archive []byte
		abort   bool // stop halfway, inside a phase
		kept    bool // Reset keeps the Targets
	}{
		{recorder[0], false, false},
		{recorder[1], false, true},
		{recorder[2], true, true},
		{recorder[2], false, true},
		{other, false, false},
		{recorder[0], false, false},
		{recorder[1], false, true},
	} {
		defs, evs := events(c.archive)
		if b == nil {
			b = NewBuilder(defs, "app")
		} else if kept := b.Reset(defs, "app"); kept != c.kept {
			t.Fatalf("run %d: Reset kept Targets %v, want %v", i, kept, c.kept)
		}
		if defs.Metrics[4].Name == MetricVoltage {
			// Every recorder archive defines location 1 and voltage as
			// metric 4.
			tg, err := b.Resolve(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			if c.kept && tg != vlt {
				t.Fatalf("run %d: Reset kept Targets, but voltage at location 1 resolves to %+v, not %+v", i, tg, vlt)
			}
			vlt = tg
		}
		if c.abort {
			// Halfway is the end of the second of four phases: the run
			// stops a few samples into the third.
			evs = evs[:len(evs)/2+8]
		}
		for _, ev := range evs {
			if err := b.Event(ev); err != nil {
				t.Fatal(err)
			}
		}
		if c.abort {
			continue
		}
		got, err := b.Phases()
		if err != nil {
			t.Fatal(err)
		}
		want, err := FromTrace(bytes.NewReader(c.archive), "app")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d phases, want %d", i, len(got), len(want))
		}
		for p := range got {
			if !same(got[p], want[p]) {
				t.Fatalf("run %d, phase %d: %+v, want %+v", i, p, got[p], want[p])
			}
		}
	}
}
