package phaseprofile

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"testing"
	"time"

	"pmcpower/internal/pmu"
	"pmcpower/internal/trace"
)

// recorderArchive writes an archive shaped like the acquisition
// recorder's: nLoc locations (the master first), four phases, and per
// sample tick two power channels on the master plus voltage and two
// PMC rates on each location in sampled.
func recorderArchive(t *testing.T, nLoc int, sampled []trace.Ref, samplesPerPhase int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < nLoc; i++ {
		if _, err := w.DefineLocation(""); err != nil {
			t.Fatal(err)
		}
	}
	var regions []trace.Ref
	for p := 0; p < 4; p++ {
		r, _ := w.DefineRegion(fmt.Sprintf("phase%d@%d", p, len(sampled)))
		regions = append(regions, r)
	}
	thr, _ := w.DefineMetric(MetricThreads, "threads", trace.MetricSync)
	frq, _ := w.DefineMetric(MetricFreq, "MHz", trace.MetricSync)
	pow0, _ := w.DefineMetric("socket0_power", "W", trace.MetricAsync)
	pow1, _ := w.DefineMetric("socket1_power", "W", trace.MetricAsync)
	vlt, _ := w.DefineMetric(MetricVoltage, "V", trace.MetricAsync)
	cyc, _ := w.DefineMetric("PAPI_TOT_CYC", "events/s", trace.MetricAsync)
	ins, _ := w.DefineMetric("PAPI_TOT_INS", "events/s", trace.MetricAsync)

	ev := func(e trace.Event) {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	const phaseNs = 1_000_000_000
	now := uint64(0)
	for _, reg := range regions {
		ev(trace.Event{Kind: trace.KindEnter, Location: 0, TimeNs: now, Region: reg})
		ev(trace.Event{Kind: trace.KindMetric, Location: 0, TimeNs: now, Metric: thr, Value: float64(len(sampled))})
		ev(trace.Event{Kind: trace.KindMetric, Location: 0, TimeNs: now, Metric: frq, Value: 2400})
		for s := 0; s < samplesPerPhase; s++ {
			at := now + uint64(s+1)*(phaseNs/uint64(samplesPerPhase+1))
			ev(trace.Event{Kind: trace.KindMetric, Location: 0, TimeNs: at, Metric: pow0, Value: 100 + float64(s%7)})
			ev(trace.Event{Kind: trace.KindMetric, Location: 0, TimeNs: at, Metric: pow1, Value: 90 + float64(s%5)})
			for _, loc := range sampled {
				ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: at, Metric: vlt, Value: 0.9 + float64(s%3)/100})
				ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: at, Metric: cyc, Value: 2.4e9})
				ev(trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: at, Metric: ins, Value: 1e9 + float64(s)})
			}
		}
		now += phaseNs
		ev(trace.Event{Kind: trace.KindLeave, Location: 0, TimeNs: now, Region: reg})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFromTraceAllocsIndependentOfSamples gates the per-sample path:
// aggregation reuses dense per-phase state, so an archive with 100×
// the samples per phase costs exactly as many allocations.
func TestFromTraceAllocsIndependentOfSamples(t *testing.T) {
	cores := []trace.Ref{1, 2, 3, 4, 5, 6, 7, 8}
	allocs := func(samplesPerPhase int) float64 {
		archive := recorderArchive(t, 9, cores, samplesPerPhase)
		return testing.AllocsPerRun(10, func() {
			phases, err := FromTrace(bytes.NewReader(archive), "x")
			if err != nil || len(phases) != 4 {
				t.Fatalf("FromTrace: %d phases, %v", len(phases), err)
			}
		})
	}
	few, many := allocs(10), allocs(1000)
	if few != many {
		t.Fatalf("FromTrace allocates %.0f times at 10 samples per phase but %.0f at 1000", few, many)
	}
}

// TestFromTraceBoundedByDeclaredLocations: a hostile archive may
// declare up to trace.MaxDefinitions locations. Beyond what
// trace.NewReader itself spends on their definitions, post-processing
// must allocate for the locations that carry samples, not for every
// declared one.
func TestFromTraceBoundedByDeclaredLocations(t *testing.T) {
	const nLoc = trace.MaxDefinitions
	archive := recorderArchive(t, nLoc, []trace.Ref{1, nLoc / 2, nLoc - 1}, 10)
	allocBytes := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	reader := allocBytes(func() error {
		_, err := trace.NewReader(bytes.NewReader(archive))
		return err
	})
	profile := allocBytes(func() error {
		phases, err := FromTrace(bytes.NewReader(archive), "x")
		if err == nil && len(phases) != 4 {
			err = fmt.Errorf("%d phases, want 4", len(phases))
		}
		return err
	})
	var extra uint64
	if profile > reader {
		extra = profile - reader
	}
	if perLoc := float64(extra) / nLoc; perLoc > 1 {
		t.Fatalf("FromTrace allocates %.2f bytes per declared location beyond trace.NewReader's %d bytes", perLoc, reader)
	}
}

// TestFromTraceFoldsInRefOrder pins the summation order: per-location
// means combine in ascending location ref order and power channels in
// ascending metric ref order, whatever order the samples arrive in.
// The values make float addition visibly order-dependent, samples
// arrive in descending ref order, and the second phase touches a
// subset of the first phase's locations and channels, so a leftover
// aggregate would show too.
func TestFromTraceFoldsInRefOrder(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	master, _ := w.DefineLocation("master")
	cores := make([]trace.Ref, 3)
	for i := range cores {
		cores[i], _ = w.DefineLocation(fmt.Sprintf("core %d", i))
	}
	reg1, _ := w.DefineRegion("first")
	reg2, _ := w.DefineRegion("second")
	var pow []trace.Ref
	for i := 0; i < 3; i++ {
		m, _ := w.DefineMetric(fmt.Sprintf("socket%d_power", i), "W", trace.MetricAsync)
		pow = append(pow, m)
	}
	vlt, _ := w.DefineMetric(MetricVoltage, "V", trace.MetricAsync)
	cyc, _ := w.DefineMetric("PAPI_TOT_CYC", "events/s", trace.MetricAsync)
	ins, _ := w.DefineMetric("PAPI_TOT_INS", "events/s", trace.MetricAsync)
	now := uint64(0)
	ev := func(e trace.Event) {
		t.Helper()
		e.TimeNs = now
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	sample := func(loc, metric trace.Ref, v float64) {
		ev(trace.Event{Kind: trace.KindMetric, Location: loc, Metric: metric, Value: v})
	}

	// First phase, two identical ticks, every series in descending
	// ref order.
	ev(trace.Event{Kind: trace.KindEnter, Location: master, Region: reg1})
	for tick := 0; tick < 2; tick++ {
		now += 100
		for i, v := range []float64{-1e16, 1e16, 1} {
			sample(master, pow[2-i], v)
		}
		for i, v := range []float64{0.3, 0.2, 0.1} {
			sample(cores[2-i], vlt, v)
		}
		for i, v := range []float64{-1e16, 1e16, 1} {
			sample(cores[2-i], cyc, v)
		}
		sample(cores[2], ins, 5)
	}
	now += 100
	ev(trace.Event{Kind: trace.KindLeave, Location: master, Region: reg1})
	// Second phase: two channels, two cores, no PAPI_TOT_INS.
	ev(trace.Event{Kind: trace.KindEnter, Location: master, Region: reg2})
	now += 100
	sample(master, pow[2], 3)
	sample(master, pow[1], 7)
	sample(cores[1], vlt, 0.5)
	sample(cores[0], vlt, 0.25)
	sample(cores[1], cyc, 2)
	sample(cores[0], cyc, 4)
	now += 100
	ev(trace.Event{Kind: trace.KindLeave, Location: master, Region: reg2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	phases, err := FromTrace(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("%d phases, want 2", len(phases))
	}
	// sum adds at run time, left to right, so each want below is the
	// ascending-ref fold.
	sum := func(xs ...float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(1, 1e16, -1e16) == sum(-1e16, 1e16, 1) || sum(0.1, 0.2, 0.3) == sum(0.3, 0.2, 0.1) {
		t.Fatal("test values do not make the summation order visible")
	}
	type want struct {
		power, voltage float64
		rates          map[pmu.EventID]float64
	}
	cycID, insID := pmu.MustByName("PAPI_TOT_CYC").ID, pmu.MustByName("PAPI_TOT_INS").ID
	wants := []want{
		{sum(1, 1e16, -1e16), sum(0.1, 0.2, 0.3) / 3, map[pmu.EventID]float64{cycID: sum(1, 1e16, -1e16), insID: 5}},
		{sum(7, 3), sum(0.25, 0.5) / 2, map[pmu.EventID]float64{cycID: sum(4, 2)}},
	}
	for i, w := range wants {
		p := phases[i]
		if math.Float64bits(p.PowerW) != math.Float64bits(w.power) ||
			math.Float64bits(p.VoltageV) != math.Float64bits(w.voltage) ||
			!maps.EqualFunc(p.Rates, w.rates, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("phase %d: power %v voltage %v rates %v; want %v %v %v", i, p.PowerW, p.VoltageV, p.Rates, w.power, w.voltage, w.rates)
		}
	}
}

// mustWrite writes ev or fails the test.
func mustWrite(t testing.TB, w *trace.Writer, ev trace.Event) {
	t.Helper()
	if err := w.WriteEvent(ev); err != nil {
		t.Fatal(err)
	}
}

// hostileShapes builds archive pairs that carry the same number of
// events: a benign one, and one shaped to make aggregation cost grow
// with declared or previously seen entries rather than with the
// samples at hand.
//
//   - locations: the first phase samples n locations once each, in
//     descending ref order; n tiny phases follow.
//   - channels: the archive declares n power channels; each of n
//     tiny phases samples one of them.
//
// The benign twin uses a single location or channel throughout.
func hostileShapes(t testing.TB, n int) map[string][2][]byte {
	t.Helper()
	// build writes a first phase with one power sample and n voltage
	// samples, on location 1 or on locations n..1, then n phases with
	// one power sample each.
	build := func(nPower int, manyLocations bool) []byte {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for i := 0; i <= n; i++ {
			w.DefineLocation("")
		}
		reg, _ := w.DefineRegion("p")
		pow := make([]trace.Ref, nPower)
		for i := range pow {
			pow[i], _ = w.DefineMetric(fmt.Sprintf("socket%d_power", i), "W", trace.MetricAsync)
		}
		vlt, _ := w.DefineMetric(MetricVoltage, "V", trace.MetricAsync)
		now := uint64(1)
		for p := 0; p <= n; p++ {
			mustWrite(t, w, trace.Event{Kind: trace.KindEnter, TimeNs: now, Region: reg})
			mustWrite(t, w, trace.Event{Kind: trace.KindMetric, TimeNs: now, Metric: pow[(p*7919)%nPower], Value: 1})
			for i := n; p == 0 && i >= 1; i-- {
				loc := trace.Ref(1)
				if manyLocations {
					loc = trace.Ref(i)
				}
				mustWrite(t, w, trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: now, Metric: vlt, Value: 1})
			}
			now++
			mustWrite(t, w, trace.Event{Kind: trace.KindLeave, TimeNs: now, Region: reg})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][2][]byte{
		"locations": {build(1, false), build(1, true)},
		"channels":  {build(1, false), build(n, false)},
	}
}

// TestFromTraceWorkBoundedBySamples: a phase's aggregation work must
// scale with its own samples, not with every location sampled so far
// or every power channel declared. Each hostile archive must
// post-process within a constant factor of its benign twin with the
// same event count. Work proportional to n in every phase, or
// insertion-sorting the n locations, makes the hostile archives tens
// of times slower at this n.
func TestFromTraceWorkBoundedBySamples(t *testing.T) {
	const n = 1 << 14
	// fastest reports the best of a few runs, to ride out scheduler
	// noise.
	fastest := func(archive []byte) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := FromTrace(bytes.NewReader(archive), "x"); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	for name, pair := range hostileShapes(t, n) {
		benign, hostile := fastest(pair[0]), fastest(pair[1])
		if hostile > 10*benign {
			t.Errorf("%s: hostile archive took %v, %.0f× its benign twin's %v", name, hostile, float64(hostile)/float64(benign), benign)
		}
	}
}

// TestFromTraceMemoryBoundedBySamples: a value aggregate exists per
// (event, location) pair that was actually sampled. An archive that
// declares every PAPI preset but samples each of many locations once
// must not pay for every declared event on every location: a sample
// may cost its aggregate, its index entry and their slice and map
// growth, a few hundred bytes, but not 16 bytes per declared event.
func TestFromTraceMemoryBoundedBySamples(t *testing.T) {
	const nLoc = 1 << 14
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < nLoc; i++ {
		w.DefineLocation("")
	}
	reg, _ := w.DefineRegion("p")
	pow, _ := w.DefineMetric("socket0_power", "W", trace.MetricAsync)
	var events []trace.Ref
	for _, id := range pmu.AllIDs() {
		m, _ := w.DefineMetric(pmu.Lookup(id).Name, "events/s", trace.MetricAsync)
		events = append(events, m)
	}
	mustWrite(t, w, trace.Event{Kind: trace.KindEnter, TimeNs: 1, Region: reg})
	mustWrite(t, w, trace.Event{Kind: trace.KindMetric, TimeNs: 1, Metric: pow, Value: 1})
	for i := 0; i < nLoc; i++ {
		mustWrite(t, w, trace.Event{Kind: trace.KindMetric, Location: trace.Ref(i), TimeNs: 1, Metric: events[i%len(events)], Value: 1})
	}
	mustWrite(t, w, trace.Event{Kind: trace.KindLeave, TimeNs: 2, Region: reg})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()

	allocBytes := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	reader := allocBytes(func() error {
		_, err := trace.NewReader(bytes.NewReader(archive))
		return err
	})
	profile := allocBytes(func() error {
		_, err := FromTrace(bytes.NewReader(archive), "x")
		return err
	})
	var extra uint64
	if profile > reader {
		extra = profile - reader
	}
	if perSample := float64(extra) / nLoc; perSample > 512 {
		t.Fatalf("FromTrace allocates %.0f bytes per sample beyond trace.NewReader's %d bytes", perSample, reader)
	}
}
