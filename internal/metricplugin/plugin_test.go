package metricplugin

import (
	"math"
	"slices"
	"testing"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

func testInterval(t *testing.T, seed uint64) *Interval {
	t.Helper()
	p := cpusim.HaswellEP()
	a, err := cpusim.NewExecutor(p).Execute(cpusim.RunConfig{
		Workload:  workloads.MustByName("compute"),
		FreqMHz:   2400,
		Threads:   24,
		DurationS: 1,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Interval{
		StartNs:  1_000_000_000,
		EndNs:    2_000_000_000,
		Activity: a,
		Platform: p,
		Rand:     rng.New(seed + 1),
	}
}

func TestPowerPlugin(t *testing.T) {
	model := power.DefaultModel()
	sensors := []*power.Sensor{power.NewSensor(rng.New(9)), power.NewSensor(rng.New(10))}
	pl, err := NewPowerPlugin(model, sensors, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name() != "scorep_ni" {
		t.Fatalf("plugin name = %s", pl.Name())
	}
	// One channel per socket.
	specs := pl.Metrics()
	if len(specs) != 2 || specs[0].Name != "socket0_power" || specs[1].Name != "socket1_power" {
		t.Fatalf("metric specs = %+v", specs)
	}
	for _, spec := range specs {
		if spec.Mode != trace.MetricAsync {
			t.Fatalf("power channel must be async: %+v", spec)
		}
	}
	iv := testInterval(t, 1)
	samples, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 20*2 {
		t.Fatalf("got %d samples at 20 Hz × 2 sockets over 1 s, want 40", len(samples))
	}
	gt, err := model.NodePower(iv.Platform, iv.Activity)
	if err != nil {
		t.Fatal(err)
	}
	trueW := gt.TotalW
	perSocket, err := model.SocketPowers(iv.Platform, iv.Activity)
	if err != nil {
		t.Fatal(err)
	}
	// Per-tick socket sums reconstruct the node power.
	perTick := map[uint64]float64{}
	for i, s := range samples {
		if s.TimeNs < iv.StartNs || s.TimeNs >= iv.EndNs {
			t.Fatalf("sample %d at %d ns outside interval", i, s.TimeNs)
		}
		if math.Abs(s.Value-perSocket[s.MetricIndex])/perSocket[s.MetricIndex] > 0.05 {
			t.Fatalf("socket %d sample %.1f W far from truth %.1f W", s.MetricIndex, s.Value, perSocket[s.MetricIndex])
		}
		perTick[s.TimeNs] += s.Value
	}
	for tick, sum := range perTick {
		if math.Abs(sum-trueW)/trueW > 0.05 {
			t.Fatalf("tick %d: socket sum %.1f W far from node truth %.1f W", tick, sum, trueW)
		}
	}
}

func TestPowerPluginSocketMismatch(t *testing.T) {
	// One sensor on a two-socket platform must be rejected at sample
	// time.
	pl, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(9))}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Sample(nil, testInterval(t, 2)); err == nil {
		t.Fatal("sensor/socket mismatch must error")
	}
}

func TestVoltagePlugin(t *testing.T) {
	pl, err := NewVoltagePlugin(20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name() != "scorep_x86_adapt" {
		t.Fatalf("plugin name = %s", pl.Name())
	}
	iv := testInterval(t, 2)
	samples, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Per-core plugin: 20 ticks × 24 active cores.
	if len(samples) != 20*24 {
		t.Fatalf("got %d voltage samples, want %d", len(samples), 20*24)
	}
	seenCores := map[int]bool{}
	for _, s := range samples {
		if math.Abs(s.Value-iv.Activity.CoreVoltageV)/iv.Activity.CoreVoltageV > 0.01 {
			t.Fatalf("voltage sample %.4f far from %.4f", s.Value, iv.Activity.CoreVoltageV)
		}
		if s.Core == NodeLevel {
			t.Fatal("voltage samples must be per-core")
		}
		seenCores[s.Core] = true
	}
	if len(seenCores) != 24 {
		t.Fatalf("voltage covered %d cores, want 24", len(seenCores))
	}
}

func TestVoltagePerCoreOffsetsStable(t *testing.T) {
	// Distinct cores sit at slightly different, stable points of the
	// load line.
	pl, err := NewVoltagePlugin(5)
	if err != nil {
		t.Fatal(err)
	}
	iv := testInterval(t, 21)
	samples, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	first := map[int]float64{}
	distinct := false
	for _, s := range samples {
		if v, ok := first[s.Core]; ok {
			if math.Abs(v-s.Value)/v > 0.005 {
				t.Fatalf("core %d voltage drifted: %.4f vs %.4f", s.Core, v, s.Value)
			}
		} else {
			first[s.Core] = s.Value
		}
	}
	for c1, v1 := range first {
		for c2, v2 := range first {
			if c1 != c2 && v1 != v2 {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatal("per-core voltages must differ (process variation)")
	}
}

// eventSet builds an event set the test knows to be valid.
func eventSet(t *testing.T, ids ...pmu.EventID) *pmu.EventSet {
	t.Helper()
	s, err := pmu.NewEventSet(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApapiPlugin(t *testing.T) {
	set := eventSet(t,
		pmu.MustByName("TOT_CYC").ID,
		pmu.MustByName("BR_MSP").ID,
		pmu.MustByName("L3_TCM").ID,
	)
	pl, err := NewApapiPlugin(set, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name() != "scorep_plugin_apapi" {
		t.Fatalf("plugin name = %s", pl.Name())
	}
	specs := pl.Metrics()
	if len(specs) != 3 {
		t.Fatalf("got %d metric specs, want 3", len(specs))
	}
	for _, spec := range specs {
		if _, err := pmu.ByName(spec.Name); err != nil {
			t.Fatalf("metric name %q is not a PAPI event", spec.Name)
		}
		if spec.Unit != "events/s" || spec.Mode != trace.MetricAsync {
			t.Fatalf("bad spec %+v", spec)
		}
	}
	iv := testInterval(t, 3)
	samples, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Per-core plugin: 10 ticks × 3 events × 24 active cores.
	if len(samples) != 10*3*24 {
		t.Fatalf("got %d samples, want %d", len(samples), 10*3*24)
	}
	// Summing the per-core rates of one tick recovers ~ the node rate.
	counts := cpusim.Counters(iv.Activity, set)
	ids := set.Events()
	perTick := map[uint64]map[int]float64{} // time → metric index → sum
	for _, s := range samples {
		if s.Core == NodeLevel {
			t.Fatal("apapi samples must be per-core")
		}
		m := perTick[s.TimeNs]
		if m == nil {
			m = map[int]float64{}
			perTick[s.TimeNs] = m
		}
		m[s.MetricIndex] += s.Value
	}
	for tick, byMetric := range perTick {
		for mi, sum := range byMetric {
			want := counts[ids[mi]] / 1.0
			if math.Abs(sum-want)/math.Max(want, 1) > 0.1 {
				t.Fatalf("tick %d metric %d: per-core sum %g far from node rate %g", tick, mi, sum, want)
			}
		}
	}
}

// TestSampleAppends: every plugin appends to the caller's buffer,
// leaving what it holds, and hands an error back with the buffer
// unchanged.
func TestSampleAppends(t *testing.T) {
	powerPl, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(9)), power.NewSensor(rng.New(10))}, 20)
	if err != nil {
		t.Fatal(err)
	}
	voltPl, err := NewVoltagePlugin(20)
	if err != nil {
		t.Fatal(err)
	}
	apapiPl, err := NewApapiPlugin(eventSet(t, pmu.MustByName("TOT_CYC").ID, pmu.MustByName("L3_TCM").ID), 20)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []SampleValue{{MetricIndex: 7, TimeNs: 1, Value: 2, Core: 3}}
	for _, pl := range []Plugin{powerPl, voltPl, apapiPl} {
		alone, err := pl.Sample(nil, testInterval(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		dst := append(make([]SampleValue, 0, 1), prefix...)
		got, err := pl.Sample(dst, testInterval(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], alone) {
			t.Errorf("%s: appending to a buffer changed the samples or lost the buffer's contents", pl.Name())
		}
		bad := testInterval(t, 5)
		bad.Rand = nil
		if got, err := pl.Sample(dst, bad); err == nil || !slices.Equal(got, prefix) {
			t.Errorf("%s: invalid interval returned %d samples, error %v; want the buffer unchanged and an error", pl.Name(), len(got), err)
		}
	}
}

func TestApapiRejectsUnschedulableSet(t *testing.T) {
	var ids []pmu.EventID
	for _, id := range pmu.AllIDs() {
		if e := pmu.Lookup(id); e.Kind == pmu.Programmable && e.NativeSlots == 1 {
			ids = append(ids, e.ID)
		}
		if len(ids) == pmu.ProgrammableSlots+1 {
			break
		}
	}
	if _, err := NewApapiPlugin(eventSet(t, ids...), 10); err == nil {
		t.Fatal("unschedulable set must be rejected")
	}
}

func TestIntervalValidation(t *testing.T) {
	good := testInterval(t, 4)
	pl, err := NewVoltagePlugin(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Interval){
		func(iv *Interval) { iv.EndNs = iv.StartNs },
		func(iv *Interval) { iv.Activity = nil },
		func(iv *Interval) { iv.Platform = nil },
		func(iv *Interval) { iv.Rand = nil },
	}
	for i, mut := range cases {
		iv := *good
		mut(&iv)
		if _, err := pl.Sample(nil, &iv); err == nil {
			t.Fatalf("case %d: invalid interval must be rejected", i)
		}
	}
}

func TestInvalidPluginConfigErrors(t *testing.T) {
	// Constructor validation is an error, not a panic: campaign options
	// and CLI flags reach these parameters directly.
	cases := []struct {
		name string
		make func() error
	}{
		{"power zero rate", func() error {
			_, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(1))}, 0)
			return err
		}},
		{"power negative rate", func() error {
			_, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(1))}, -3)
			return err
		}},
		{"power NaN rate", func() error {
			_, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(1))}, math.NaN())
			return err
		}},
		{"power Inf rate", func() error {
			_, err := NewPowerPlugin(power.DefaultModel(), []*power.Sensor{power.NewSensor(rng.New(1))}, math.Inf(1))
			return err
		}},
		{"power zero sensors", func() error {
			_, err := NewPowerPlugin(power.DefaultModel(), nil, 10)
			return err
		}},
		{"voltage negative rate", func() error {
			_, err := NewVoltagePlugin(-5)
			return err
		}},
		{"voltage NaN rate", func() error {
			_, err := NewVoltagePlugin(math.NaN())
			return err
		}},
		{"apapi zero rate", func() error {
			_, err := NewApapiPlugin(eventSet(t, pmu.MustByName("TOT_CYC").ID), 0)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.make() == nil {
			t.Errorf("%s: invalid plugin config must be rejected", tc.name)
		}
	}
}

func TestTicksCoverage(t *testing.T) {
	ts := ticks(0, 1_000_000_000, 4)
	if len(ts) != 4 {
		t.Fatalf("4 Hz over 1 s: %d ticks", len(ts))
	}
	// A window shorter than one period still yields one sample.
	ts = ticks(0, 1000, 1)
	if len(ts) != 1 {
		t.Fatalf("sub-period window: %d ticks, want 1", len(ts))
	}
	if ticks(0, 100, 0) != nil {
		t.Fatal("zero rate must yield no ticks")
	}
}

func TestIntervalDurationS(t *testing.T) {
	iv := Interval{StartNs: 500_000_000, EndNs: 2_500_000_000}
	if d := iv.DurationS(); d != 2 {
		t.Fatalf("DurationS = %v", d)
	}
}
