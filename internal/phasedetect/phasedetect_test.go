package phasedetect

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/pmu"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

// synth builds a noisy piecewise-constant signal: levels[i] held for
// stepLen samples each, at 10 ms per sample.
func synth(levels []float64, stepLen int, noise float64, seed uint64) []Sample {
	r := rng.New(seed)
	var out []Sample
	t := uint64(0)
	for _, lv := range levels {
		for i := 0; i < stepLen; i++ {
			out = append(out, Sample{TimeNs: t, Value: lv + r.NormScaled(0, noise)})
			t += 10_000_000
		}
	}
	return out
}

func TestDetectCleanSteps(t *testing.T) {
	levels := []float64{60, 120, 90, 200}
	samples := synth(levels, 40, 0.5, 1)
	segs, err := Detect(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(levels) {
		t.Fatalf("detected %d segments, want %d: %+v", len(segs), len(levels), segs)
	}
	for i, seg := range segs {
		if math.Abs(seg.Mean-levels[i]) > 2 {
			t.Fatalf("segment %d mean %.1f, want %.1f", i, seg.Mean, levels[i])
		}
	}
	// Boundaries within a window of the truth (every 400 ms).
	for i := 1; i < len(segs); i++ {
		wantNs := uint64(i) * 40 * 10_000_000
		gotNs := segs[i].StartNs
		if diff := math.Abs(float64(gotNs) - float64(wantNs)); diff > 5*10_000_000 {
			t.Fatalf("boundary %d at %d ns, want ~%d ns", i, gotNs, wantNs)
		}
	}
}

func TestDetectConstantSignal(t *testing.T) {
	samples := synth([]float64{100}, 200, 0.8, 2)
	segs, err := Detect(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("constant signal split into %d segments", len(segs))
	}
	if segs[0].N != 200 {
		t.Fatalf("segment covers %d samples", segs[0].N)
	}
}

func TestDetectIgnoresSmallWiggles(t *testing.T) {
	// 2 % steps below the 3 % threshold must not trigger.
	samples := synth([]float64{100, 102, 100, 98}, 50, 0.3, 3)
	segs, err := Detect(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("sub-threshold steps split the signal into %d segments", len(segs))
	}
}

func TestDetectValidation(t *testing.T) {
	if _, err := Detect(synth([]float64{1}, 3, 0, 5)); err == nil {
		t.Fatal("too few samples must error")
	}
	bad := synth([]float64{1}, 20, 0, 6)
	bad[5].TimeNs = bad[4].TimeNs - 1
	if _, err := Detect(bad); err == nil {
		t.Fatal("out-of-order samples must error")
	}
}

func TestDetectCoversFullSpan(t *testing.T) {
	samples := synth([]float64{50, 150}, 30, 0.5, 7)
	segs, err := Detect(samples)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].StartNs != samples[0].TimeNs {
		t.Fatal("first segment must start at the first sample")
	}
	if segs[len(segs)-1].EndNs != samples[len(samples)-1].TimeNs {
		t.Fatal("last segment must end at the last sample")
	}
	// Segments tile the span without overlap.
	for i := 1; i < len(segs); i++ {
		if segs[i].StartNs != segs[i-1].EndNs {
			t.Fatal("segments must tile without gaps")
		}
	}
}

// TestDetectOnSimulatedPowerTrace recovers the roco2 thread-sweep
// steps from the power samples of a real trace archive — the
// integration the module exists for.
func TestDetectOnSimulatedPowerTrace(t *testing.T) {
	var archive []byte
	_, err := acquisition.Acquire(acquisition.Options{
		Seed:   3,
		Events: []pmu.EventID{cycID()},
		TraceSink: func(name string, data []byte) {
			if archive == nil {
				archive = append([]byte(nil), data...)
			}
		},
	}, []*workloads.Workload{workloads.MustByName("compute")}, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	defs := r.Definitions()
	isPower := map[trace.Ref]bool{}
	for _, m := range defs.Metrics {
		if phaseprofile.IsPowerMetric(m.Name) {
			isPower[m.Ref] = true
		}
	}
	// Sum the per-socket channels per timestamp into one node signal.
	sums := map[uint64]float64{}
	var order []uint64
	trueBoundaries := 0
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.KindEnter {
			trueBoundaries++
		}
		if ev.Kind == trace.KindMetric && isPower[ev.Metric] {
			if _, ok := sums[ev.TimeNs]; !ok {
				order = append(order, ev.TimeNs)
			}
			sums[ev.TimeNs] += ev.Value
		}
	}
	samples := make([]Sample, 0, len(order))
	for _, tNs := range order {
		samples = append(samples, Sample{TimeNs: tNs, Value: sums[tNs]})
	}
	segs, err := Detect(samples)
	if err != nil {
		t.Fatal(err)
	}
	// compute sweeps 8 thread counts → 8 instrumented phases. The
	// detector must find most of them (adjacent low-thread steps differ
	// by only a few watts and may merge).
	if len(segs) < trueBoundaries-3 || len(segs) > trueBoundaries+2 {
		t.Fatalf("detected %d segments for %d instrumented phases", len(segs), trueBoundaries)
	}
	// Power must increase across the detected sweep.
	if segs[len(segs)-1].Mean <= segs[0].Mean {
		t.Fatal("detected means must rise through the thread sweep")
	}
}

func cycID() pmu.EventID { return pmu.MustByName("TOT_CYC").ID }
