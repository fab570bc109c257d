package acquisition

import (
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

func smallEvents() []pmu.EventID {
	return []pmu.EventID{
		pmu.MustByName("TOT_CYC").ID,
		pmu.MustByName("TOT_INS").ID,
		pmu.MustByName("L3_TCM").ID,
		pmu.MustByName("BR_MSP").ID,
	}
}

func TestAcquireBasicShape(t *testing.T) {
	wls := []*workloads.Workload{
		workloads.MustByName("compute"), // roco2: 8 thread steps
		workloads.MustByName("md"),      // SPEC: 24 threads only
	}
	ds, err := Acquire(Options{Seed: 1, Events: smallEvents()}, wls, []int{1200, 2400})
	if err != nil {
		t.Fatal(err)
	}
	// compute: 8 thread steps × 2 freqs; md: 1 × 2 freqs.
	if len(ds.Rows) != 8*2+2 {
		t.Fatalf("got %d rows, want 18", len(ds.Rows))
	}
	for _, r := range ds.Rows {
		if r.PowerW < 30 || r.PowerW > 400 {
			t.Fatalf("%s power %.1f W implausible", r.Workload, r.PowerW)
		}
		if r.VoltageV < 0.6 || r.VoltageV > 1.2 {
			t.Fatalf("%s voltage %.3f V implausible", r.Workload, r.VoltageV)
		}
		if len(r.Rates) != len(smallEvents()) {
			t.Fatalf("%s has %d counter rates, want %d", r.Workload, len(r.Rates), len(smallEvents()))
		}
		if r.Rates[pmu.MustByName("TOT_CYC").ID] <= 0 {
			t.Fatalf("%s has no cycle rate", r.Workload)
		}
	}
}

func TestAcquireDeterministic(t *testing.T) {
	wls := []*workloads.Workload{workloads.MustByName("sqrt")}
	a, err := Acquire(Options{Seed: 5, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Acquire(Options{Seed: 5, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].PowerW != b.Rows[i].PowerW {
			t.Fatal("identical seeds must produce identical datasets")
		}
		for id, v := range a.Rows[i].Rates {
			if b.Rows[i].Rates[id] != v {
				t.Fatal("identical seeds must produce identical counter rates")
			}
		}
	}
	c, err := Acquire(Options{Seed: 6, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].PowerW == c.Rows[0].PowerW {
		t.Fatal("different seeds must differ")
	}
}

func TestAcquireSkipsExcluded(t *testing.T) {
	wls := []*workloads.Workload{
		workloads.MustByName("kdtree"), // excluded
		workloads.MustByName("sqrt"),
	}
	ds, err := Acquire(Options{Seed: 1, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Rows {
		if r.Workload == "kdtree" {
			t.Fatal("excluded workload must be skipped")
		}
	}
}

func TestAcquireValidation(t *testing.T) {
	if _, err := Acquire(Options{}, nil, []int{2400}); err == nil {
		t.Fatal("empty workload list must error")
	}
	wls := []*workloads.Workload{workloads.MustByName("sqrt")}
	if _, err := Acquire(Options{}, wls, nil); err == nil {
		t.Fatal("empty frequency list must error")
	}
	if _, err := Acquire(Options{Events: smallEvents()}, wls, []int{1337}); err == nil {
		t.Fatal("unknown frequency must error")
	}
}

func TestMultiplexedRunsMergeAllCounters(t *testing.T) {
	// Recording all 54 presets needs several runs; the merged rows
	// must carry every event.
	wls := []*workloads.Workload{workloads.MustByName("sinus")}
	ds, err := Acquire(Options{Seed: 2}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Rows {
		if len(r.Rates) != pmu.NumEvents() {
			t.Fatalf("row has %d counters after merging, want all %d", len(r.Rates), pmu.NumEvents())
		}
	}
}

func TestMeasuredPowerTracksGroundTruth(t *testing.T) {
	// The measured (sensor) power in the dataset must be close to the
	// ground-truth model for the same activity.
	p := cpusim.HaswellEP()
	m := power.DefaultModel()
	ex := cpusim.NewExecutor(p)

	wls := []*workloads.Workload{workloads.MustByName("compute")}
	ds, err := Acquire(Options{Seed: 3, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Rows {
		a, err := ex.Execute(cpusim.RunConfig{
			Workload:  workloads.MustByName("compute"),
			FreqMHz:   r.FreqMHz,
			Threads:   r.Threads,
			DurationS: 1,
		}, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		gt, err := m.NodePower(p, a)
		if err != nil {
			t.Fatal(err)
		}
		truth := gt.TotalW
		if math.Abs(r.PowerW-truth)/truth > 0.05 {
			t.Fatalf("threads=%d: measured %.1f W vs truth %.1f W", r.Threads, r.PowerW, truth)
		}
	}
}

func TestRatePerCycleNormalization(t *testing.T) {
	wls := []*workloads.Workload{workloads.MustByName("compute")}
	ds, err := Acquire(Options{Seed: 4, Events: smallEvents()}, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	cyc := pmu.MustByName("TOT_CYC").ID
	for _, r := range ds.Rows {
		// TOT_CYC per cpu-clock ≈ number of unhalted cores.
		e := r.RatePerCycle(cyc)
		if e < 0.5*float64(r.Threads) || e > 1.3*float64(r.Threads) {
			t.Fatalf("threads=%d: TOT_CYC rate per cycle = %.2f, want ≈ thread count", r.Threads, e)
		}
	}
}

func TestDatasetHelpers(t *testing.T) {
	wls := []*workloads.Workload{
		workloads.MustByName("compute"),
		workloads.MustByName("md"),
	}
	ds, err := Acquire(Options{Seed: 1, Events: smallEvents()}, wls, []int{1200, 2400})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Workloads(); len(got) != 2 || got[0] != "compute" || got[1] != "md" {
		t.Fatalf("Workloads() = %v", got)
	}
	at := ds.AtFrequency(1200)
	for _, r := range at.Rows {
		if r.FreqMHz != 1200 {
			t.Fatal("AtFrequency leaked other frequencies")
		}
	}
	if len(at.Rows)+len(ds.AtFrequency(2400).Rows) != len(ds.Rows) {
		t.Fatal("frequency partition incomplete")
	}
	spec := ds.ByClass(workloads.SPEC)
	for _, r := range spec.Rows {
		if r.Workload != "md" {
			t.Fatalf("ByClass(SPEC) returned %s", r.Workload)
		}
	}
}

func TestRowsSortedDeterministically(t *testing.T) {
	wls := []*workloads.Workload{
		workloads.MustByName("md"),
		workloads.MustByName("compute"),
	}
	ds, err := Acquire(Options{Seed: 1, Events: smallEvents()}, wls, []int{2400, 1200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ds.Rows); i++ {
		a, b := ds.Rows[i-1], ds.Rows[i]
		if a.Workload > b.Workload {
			t.Fatal("rows not sorted by workload")
		}
		if a.Workload == b.Workload && a.FreqMHz > b.FreqMHz {
			t.Fatal("rows not sorted by frequency within workload")
		}
		if a.Workload == b.Workload && a.FreqMHz == b.FreqMHz && a.Threads >= b.Threads {
			t.Fatal("rows not sorted by threads")
		}
	}
}

func TestTraceSinkReceivesArchives(t *testing.T) {
	var names []string
	var totalBytes int
	opts := Options{
		Seed:   1,
		Events: smallEvents(),
		TraceSink: func(name string, data []byte) {
			names = append(names, name)
			totalBytes += len(data)
		},
	}
	wls := []*workloads.Workload{workloads.MustByName("sqrt")}
	if _, err := Acquire(opts, wls, []int{2400}); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || totalBytes == 0 {
		t.Fatal("trace sink received nothing")
	}
}

func TestSPECPhasesAggregateByDuration(t *testing.T) {
	// md has phases with weights 0.7/0.3; the row must be the
	// duration-weighted aggregate, between the two phase powers.
	var archives [][]byte
	opts := Options{
		Seed:   7,
		Events: smallEvents(),
		TraceSink: func(name string, data []byte) {
			archives = append(archives, append([]byte(nil), data...))
		},
	}
	wls := []*workloads.Workload{workloads.MustByName("md")}
	ds, err := Acquire(opts, wls, []int{2400})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Rows) != 1 {
		t.Fatalf("md must yield one row per frequency, got %d", len(ds.Rows))
	}
	if len(archives) == 0 {
		t.Fatal("no trace archives captured")
	}
}

func TestAcquireParallelEquivalence(t *testing.T) {
	// The determinism contract: per-run seeds are derived from the
	// campaign seed by order-insensitive splitting and the rows are
	// collected in cell order, so any Parallelism setting must yield
	// a bit-identical dataset.
	wls := []*workloads.Workload{
		workloads.MustByName("compute"),
		workloads.MustByName("md"),
		workloads.MustByName("sqrt"),
	}
	freqs := []int{1200, 2400}
	serial, err := Acquire(Options{Seed: 11, Events: smallEvents(), Parallelism: 1}, wls, freqs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Acquire(Options{Seed: 11, Events: smallEvents(), Parallelism: 4}, wls, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], par.Rows[i]
		if s.Workload != p.Workload || s.Class != p.Class || s.FreqMHz != p.FreqMHz || s.Threads != p.Threads {
			t.Fatalf("row %d identity differs: %+v vs %+v", i, s, p)
		}
		if s.PowerW != p.PowerW || s.VoltageV != p.VoltageV {
			t.Fatalf("row %d measurements differ: %v/%v W, %v/%v V", i, s.PowerW, p.PowerW, s.VoltageV, p.VoltageV)
		}
		if len(s.Rates) != len(p.Rates) {
			t.Fatalf("row %d rate counts differ", i)
		}
		for id, v := range s.Rates {
			if p.Rates[id] != v {
				t.Fatalf("row %d rate %v differs: %v vs %v", i, id, v, p.Rates[id])
			}
		}
	}
}

func TestAcquireParallelTraceSinkOrder(t *testing.T) {
	// Trace archives must arrive on the sink in the same deterministic
	// order regardless of parallelism: workers hand their archives to
	// the cell-ordered reduction instead of calling the sink directly.
	collect := func(parallelism int) (names []string, sizes []int) {
		opts := Options{
			Seed:        3,
			Events:      smallEvents(),
			Parallelism: parallelism,
			TraceSink: func(name string, data []byte) {
				names = append(names, name)
				sizes = append(sizes, len(data))
			},
		}
		wls := []*workloads.Workload{
			workloads.MustByName("sqrt"),
			workloads.MustByName("md"),
		}
		if _, err := Acquire(opts, wls, []int{1200, 2400}); err != nil {
			t.Fatal(err)
		}
		return names, sizes
	}
	sn, ss := collect(1)
	pn, ps := collect(4)
	if len(sn) == 0 {
		t.Fatal("trace sink received nothing")
	}
	if len(sn) != len(pn) {
		t.Fatalf("archive counts differ: %d vs %d", len(sn), len(pn))
	}
	for i := range sn {
		if sn[i] != pn[i] {
			t.Fatalf("archive %d name differs: %q vs %q", i, sn[i], pn[i])
		}
		if ss[i] != ps[i] {
			t.Fatalf("archive %d (%s) size differs: %d vs %d", i, sn[i], ss[i], ps[i])
		}
	}
}

// TestRecordRunAllocBytesPerSample gates the recorder's per-sample
// path: each step's ticks and cores go into the worker's reused
// buffers once, plugins append bare values into another and, without a
// TraceSink, no archive is encoded. So a warmed run allocates for its
// steps and phases, not for its samples: under 1 byte per emitted
// metric sample at 200 Hz, where a fresh slice per plugin and step
// costs at least the 8 bytes of each value.
func TestRecordRunAllocBytesPerSample(t *testing.T) {
	o := (&Options{Seed: 42}).withDefaults()
	plan, err := pmu.PlanRuns(o.Events)
	if err != nil {
		t.Fatal(err)
	}
	exec := cpusim.NewExecutor(o.Platform)
	sensors := make([]*power.Sensor, o.Platform.Sockets)
	for si := range sensors {
		sensors[si] = power.NewSensor(rng.New(uint64(si)))
	}
	wl := workloads.MustByName("compute")
	lb := newLabels(o.Platform, []*workloads.Workload{wl})
	var sc scratch
	run := func() {
		if _, err := recordRun(&o, 200, exec, sensors, lb, wl, 2400, plan[0], rng.New(1), &sc); err != nil {
			t.Fatal(err)
		}
	}

	// Count the run's metric samples in its archive.
	o.TraceSink = func(string, []byte) {}
	run()
	rd, err := trace.NewReader(&sc.archive)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for {
		ev, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.KindMetric {
			samples++
		}
	}

	o.TraceSink = nil
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / float64(samples)
	t.Logf("%d bytes over %d metric samples: %.2f B/sample", after.TotalAlloc-before.TotalAlloc, samples, perSample)
	if perSample >= 1 {
		t.Fatalf("recordRun allocates %.2f bytes per metric sample, want under 1", perSample)
	}
}
