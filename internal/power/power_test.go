package power

import (
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/rng"
	"pmcpower/internal/workloads"
)

func activity(t *testing.T, name string, freq, threads int, seed uint64) *cpusim.Activity {
	t.Helper()
	a, err := cpusim.NewExecutor(cpusim.HaswellEP()).Execute(cpusim.RunConfig{
		Workload:  workloads.MustByName(name),
		FreqMHz:   freq,
		Threads:   threads,
		DurationS: 1,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func nodePower(t *testing.T, name string, freq, threads int, seed uint64) Breakdown {
	t.Helper()
	b, err := DefaultModel().NodePower(cpusim.HaswellEP(), activity(t, name, freq, threads, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustNodePower and mustSocketPowers unwrap the error-returning API
// for the in-platform test cases below (the mismatch case has its own
// regression test).
func mustNodePower(t *testing.T, m *Model, p *cpusim.Platform, a *cpusim.Activity) Breakdown {
	t.Helper()
	b, err := m.NodePower(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustSocketPowers(t *testing.T, m *Model, p *cpusim.Platform, a *cpusim.Activity) []float64 {
	t.Helper()
	per, err := m.SocketPowers(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return per
}

func TestNodePowerMismatchedActivityErrors(t *testing.T) {
	// An activity produced on the Haswell platform at 2600 MHz has no
	// P-state on the embedded ARM platform: evaluating it there must
	// return an error, not panic — the "activity was produced by this
	// platform" guarantee dies as soon as activities cross backends.
	a := activity(t, "compute", 2600, 4, 9)
	if _, err := EmbeddedModel().NodePower(cpusim.EmbeddedARM(), a); err == nil {
		t.Fatal("NodePower with mismatched activity/platform must error")
	}
	if _, err := EmbeddedModel().SocketPowers(cpusim.EmbeddedARM(), a); err == nil {
		t.Fatal("SocketPowers with mismatched activity/platform must error")
	}
}

func TestPowerMagnitudes(t *testing.T) {
	idle := nodePower(t, "idle", 1200, 1, 1)
	if idle.TotalW < 35 || idle.TotalW > 80 {
		t.Fatalf("idle node power %.1f W outside plausible 35–80 W", idle.TotalW)
	}
	peak := nodePower(t, "addpd", 2600, 24, 1)
	if peak.TotalW < 180 || peak.TotalW > 400 {
		t.Fatalf("peak AVX node power %.1f W outside plausible 180–400 W", peak.TotalW)
	}
	if peak.TotalW < 3*idle.TotalW {
		t.Fatalf("peak (%0.1f) must be well above idle (%.1f)", peak.TotalW, idle.TotalW)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	for _, name := range []string{"compute", "md", "addpd"} {
		var last float64
		for _, f := range cpusim.HaswellEP().Frequencies() {
			p := nodePower(t, name, f, 24, 2).TotalW
			if p <= last {
				t.Fatalf("%s: power not increasing with frequency at %d MHz (%.1f <= %.1f)", name, f, p, last)
			}
			last = p
		}
	}
}

func TestPowerMonotoneInThreads(t *testing.T) {
	var last float64
	for _, n := range []int{1, 4, 8, 16, 24} {
		p := nodePower(t, "compute", 2400, n, 3).TotalW
		if p <= last {
			t.Fatalf("power not increasing with threads at %d (%.1f <= %.1f)", n, p, last)
		}
		last = p
	}
}

func TestBreakdownConsistency(t *testing.T) {
	b := nodePower(t, "swim", 2400, 24, 4)
	sum := b.CoreDynW + b.UncoreDynW + b.IMCW + b.StaticW + b.ConstW
	if math.Abs(sum-b.TotalW) > 1e-9 {
		t.Fatalf("breakdown components (%.2f) don't sum to total (%.2f)", sum, b.TotalW)
	}
	for _, v := range []float64{b.CoreDynW, b.UncoreDynW, b.IMCW, b.StaticW, b.ConstW} {
		if v < 0 {
			t.Fatalf("negative component in %+v", b)
		}
	}
}

func TestWorkloadCharacter(t *testing.T) {
	// AVX is hotter than integer compute at identical conditions.
	avx := nodePower(t, "addpd", 2600, 24, 5)
	alu := nodePower(t, "compute", 2600, 24, 5)
	if avx.TotalW <= alu.TotalW {
		t.Fatalf("AVX (%.1f W) must exceed integer compute (%.1f W)", avx.TotalW, alu.TotalW)
	}
	// Streaming burns IMC power; compute does not.
	stream := nodePower(t, "memory_read", 2400, 24, 5)
	if stream.IMCW < 10 {
		t.Fatalf("streaming IMC power %.1f W too small", stream.IMCW)
	}
	if alu.IMCW > 2 {
		t.Fatalf("compute IMC power %.1f W too large", alu.IMCW)
	}
	// Divider-bound sqrt is the coolest active kernel.
	sqrt := nodePower(t, "sqrt", 2600, 24, 5)
	if sqrt.TotalW >= alu.TotalW {
		t.Fatalf("sqrt (%.1f W) must be cooler than compute (%.1f W)", sqrt.TotalW, alu.TotalW)
	}
}

func TestTemperatureFeedback(t *testing.T) {
	cold := nodePower(t, "idle", 1200, 1, 6)
	hot := nodePower(t, "addpd", 2600, 24, 6)
	if hot.DieTempC <= cold.DieTempC {
		t.Fatal("hotter workload must raise die temperature")
	}
	if hot.DieTempC > 95 {
		t.Fatalf("die temperature %.1f °C implausibly high", hot.DieTempC)
	}
	if hot.StaticW <= cold.StaticW {
		t.Fatal("leakage must grow with temperature (and voltage)")
	}
}

func TestStaticPowerGrowsWithVoltage(t *testing.T) {
	lo := nodePower(t, "compute", 1200, 12, 7)
	hi := nodePower(t, "compute", 2600, 12, 7)
	if hi.StaticW <= lo.StaticW {
		t.Fatal("static power must grow with voltage")
	}
}

func TestPowerDeterminism(t *testing.T) {
	a := nodePower(t, "md", 2400, 24, 8)
	b := nodePower(t, "md", 2400, 24, 8)
	if a.TotalW != b.TotalW {
		t.Fatal("power must be deterministic for identical activity")
	}
}

func TestSensorCalibrationAndNoise(t *testing.T) {
	sensor := NewSensor(rng.New(1))
	const trueW = 150.0
	r := rng.New(2)
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		// A phase shorter than one sample period reads one sample.
		v := sensor.PhaseAverage(trueW, 0, r)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	// Calibration error bounded to ~1%.
	if math.Abs(mean-trueW)/trueW > 0.01 {
		t.Fatalf("sensor mean %.2f too far from true %.2f", mean, trueW)
	}
	// Noise has an absolute + relative component.
	wantSD := 0.25 + 0.004*trueW
	if sd < wantSD*0.8 || sd > wantSD*1.2 {
		t.Fatalf("sample sd = %.3f, want ~%.3f", sd, wantSD)
	}
}

func TestSensorNoiseIsHeteroscedastic(t *testing.T) {
	sensor := NewSensor(rng.New(3))
	sdAt := func(trueW float64) float64 {
		r := rng.New(4)
		var sum, sumsq float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := sensor.PhaseAverage(trueW, 0, r)
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		return math.Sqrt(sumsq/n - mean*mean)
	}
	if sdAt(250) <= sdAt(60) {
		t.Fatal("sensor noise must grow with power (relative component)")
	}
}

func TestPhaseAverageReducesNoise(t *testing.T) {
	sensor := NewSensor(rng.New(5))
	spread := func(dur float64) float64 {
		r := rng.New(6)
		var min, max float64 = 1e9, -1e9
		for i := 0; i < 500; i++ {
			v := sensor.PhaseAverage(100, dur, r)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	if spread(10) >= spread(0.01) {
		t.Fatal("longer averaging windows must reduce reading spread")
	}
}

func TestSensorsDifferByCalibration(t *testing.T) {
	a := NewSensor(rng.New(10))
	b := NewSensor(rng.New(11))
	// Identical noise stream, different calibration.
	va := a.PhaseAverage(100, 1000, rng.New(1))
	vb := b.PhaseAverage(100, 1000, rng.New(1))
	if va == vb {
		t.Fatal("distinct sensors must have distinct calibration")
	}
}

func TestPowerOrderingProperty(t *testing.T) {
	// Property: for any seed, power at 24 threads ≥ power at 1 thread
	// for every active workload class representative, at any frequency.
	names := []string{"compute", "memory_read", "matmul", "sqrt"}
	freqs := cpusim.HaswellEP().Frequencies()
	f := func(seed uint64, wi, fi uint8) bool {
		name := names[int(wi)%len(names)]
		freq := freqs[int(fi)%len(freqs)]
		ex := cpusim.NewExecutor(cpusim.HaswellEP())
		m := DefaultModel()
		a1, err := ex.Execute(cpusim.RunConfig{Workload: workloads.MustByName(name), FreqMHz: freq, Threads: 1, DurationS: 0.5}, rng.New(seed))
		if err != nil {
			return false
		}
		a24, err := ex.Execute(cpusim.RunConfig{Workload: workloads.MustByName(name), FreqMHz: freq, Threads: 24, DurationS: 0.5}, rng.New(seed))
		if err != nil {
			return false
		}
		b24, err := m.NodePower(cpusim.HaswellEP(), a24)
		if err != nil {
			return false
		}
		b1, err := m.NodePower(cpusim.HaswellEP(), a1)
		if err != nil {
			return false
		}
		return b24.TotalW > b1.TotalW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSocketPowersConservation(t *testing.T) {
	p := cpusim.HaswellEP()
	m := DefaultModel()
	for _, tc := range []struct {
		name    string
		threads int
	}{
		{"compute", 1}, {"compute", 12}, {"compute", 24},
		{"memory_read", 13}, {"md", 24}, {"idle", 24},
	} {
		a := activity(t, tc.name, 2400, tc.threads, 21)
		total := mustNodePower(t, m, p, a).TotalW
		per := mustSocketPowers(t, m, p, a)
		if len(per) != 2 {
			t.Fatalf("%d socket channels, want 2", len(per))
		}
		var sum float64
		for s, w := range per {
			if w < 0 {
				t.Fatalf("%s@%d: socket %d negative power %.2f", tc.name, tc.threads, s, w)
			}
			sum += w
		}
		if math.Abs(sum-total)/total > 1e-9 {
			t.Fatalf("%s@%d: socket sum %.3f != node %.3f", tc.name, tc.threads, sum, total)
		}
	}
}

func TestSocketPowersFollowActivity(t *testing.T) {
	p := cpusim.HaswellEP()
	m := DefaultModel()
	// With 8 threads, all work is on socket 0: it must carry clearly
	// more power than the idle socket 1.
	a := activity(t, "compute", 2400, 8, 22)
	per := mustSocketPowers(t, m, p, a)
	if per[0] <= per[1] {
		t.Fatalf("loaded socket 0 (%.1f W) must exceed idle socket 1 (%.1f W)", per[0], per[1])
	}
	// Balanced load → roughly balanced sockets (within the board
	// constant on socket 0).
	b := activity(t, "compute", 2400, 24, 22)
	perB := mustSocketPowers(t, m, p, b)
	if diff := math.Abs(perB[0] - perB[1]); diff > 15 {
		t.Fatalf("balanced load skewed: %.1f vs %.1f W", perB[0], perB[1])
	}
}

func TestSocketPowersSingleSocket(t *testing.T) {
	p := cpusim.EmbeddedARM()
	m := EmbeddedModel()
	ex := cpusim.NewExecutor(p)
	a, err := ex.Execute(cpusim.RunConfig{
		Workload: workloads.MustByName("compute"), FreqMHz: 1400, Threads: 4, DurationS: 1,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	per := mustSocketPowers(t, m, p, a)
	if len(per) != 1 {
		t.Fatalf("%d channels for single socket", len(per))
	}
	if math.Abs(per[0]-mustNodePower(t, m, p, a).TotalW) > 1e-12 {
		t.Fatal("single-socket power must equal node power")
	}
}
