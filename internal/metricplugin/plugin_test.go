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

// testInterval is one second of compute on all 24 cores, with ticks at
// rateHz.
func testInterval(t *testing.T, seed uint64, rateHz float64) *Interval {
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
		Ticks:    Ticks(nil, 1_000_000_000, 2_000_000_000, rateHz),
		Cores:    ActiveCores(nil, p, a),
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
	if pl.PerCore() {
		t.Fatal("power must be sampled at the node")
	}
	iv := testInterval(t, 1, 20)
	values, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 20*2 {
		t.Fatalf("got %d values at 20 Hz × 2 sockets over 1 s, want 40", len(values))
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
	// Values go by tick, then by socket; per-tick socket sums
	// reconstruct the node power.
	for ti := range iv.Ticks {
		var sum float64
		for si, v := range values[ti*2 : ti*2+2] {
			if math.Abs(v-perSocket[si])/perSocket[si] > 0.05 {
				t.Fatalf("tick %d: socket %d value %.1f W far from truth %.1f W", ti, si, v, perSocket[si])
			}
			sum += v
		}
		if math.Abs(sum-trueW)/trueW > 0.05 {
			t.Fatalf("tick %d: socket sum %.1f W far from node truth %.1f W", ti, sum, trueW)
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
	if _, err := pl.Sample(nil, testInterval(t, 2, 20)); err == nil {
		t.Fatal("sensor/socket mismatch must error")
	}
}

func TestVoltagePlugin(t *testing.T) {
	pl := &VoltagePlugin{}
	if pl.Name() != "scorep_x86_adapt" {
		t.Fatalf("plugin name = %s", pl.Name())
	}
	if !pl.PerCore() {
		t.Fatal("voltage must be sampled per core")
	}
	iv := testInterval(t, 2, 20)
	if len(iv.Cores) != 24 {
		t.Fatalf("interval has %d active cores, want 24", len(iv.Cores))
	}
	values, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Per-core plugin: 20 ticks × 24 active cores.
	if len(values) != 20*24 {
		t.Fatalf("got %d voltage values, want %d", len(values), 20*24)
	}
	for _, v := range values {
		if math.Abs(v-iv.Activity.CoreVoltageV)/iv.Activity.CoreVoltageV > 0.01 {
			t.Fatalf("voltage value %.4f far from %.4f", v, iv.Activity.CoreVoltageV)
		}
	}
}

func TestVoltagePerCoreOffsetsStable(t *testing.T) {
	// Distinct cores sit at slightly different, stable points of the
	// load line.
	iv := testInterval(t, 21, 5)
	values, err := (&VoltagePlugin{}).Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Values go by tick, then by core.
	first := map[int]float64{}
	distinct := false
	for i, v := range values {
		c := iv.Cores[i%len(iv.Cores)]
		if v0, ok := first[c]; ok {
			if math.Abs(v0-v)/v0 > 0.005 {
				t.Fatalf("core %d voltage drifted: %.4f vs %.4f", c, v0, v)
			}
		} else {
			first[c] = v
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
	pl, err := NewApapiPlugin(set)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name() != "scorep_plugin_apapi" {
		t.Fatalf("plugin name = %s", pl.Name())
	}
	if !pl.PerCore() {
		t.Fatal("apapi must be sampled per core")
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
	iv := testInterval(t, 3, 10)
	values, err := pl.Sample(nil, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Per-core plugin: 10 ticks × 3 events × 24 active cores.
	if len(values) != 10*3*24 {
		t.Fatalf("got %d values, want %d", len(values), 10*3*24)
	}
	// Values go by tick, then by event, then by core. Summing the
	// per-core rates of one tick recovers ~ the node rate.
	counts := cpusim.Counters(iv.Activity, set)
	ids := set.Events()
	for ti := range iv.Ticks {
		for mi, id := range ids {
			var sum float64
			for _, v := range values[(ti*3+mi)*24 : (ti*3+mi+1)*24] {
				sum += v
			}
			want := counts[id] / 1.0
			if math.Abs(sum-want)/math.Max(want, 1) > 0.1 {
				t.Fatalf("tick %d metric %d: per-core sum %g far from node rate %g", ti, mi, sum, want)
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
	apapiPl, err := NewApapiPlugin(eventSet(t, pmu.MustByName("TOT_CYC").ID, pmu.MustByName("L3_TCM").ID))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []float64{7}
	for _, pl := range []Plugin{powerPl, &VoltagePlugin{}, apapiPl} {
		alone, err := pl.Sample(nil, testInterval(t, 5, 20))
		if err != nil {
			t.Fatal(err)
		}
		dst := append(make([]float64, 0, 1), prefix...)
		got, err := pl.Sample(dst, testInterval(t, 5, 20))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], alone) {
			t.Errorf("%s: appending to a buffer changed the samples or lost the buffer's contents", pl.Name())
		}
		bad := testInterval(t, 5, 20)
		bad.Rand = nil
		if got, err := pl.Sample(dst, bad); err == nil || !slices.Equal(got, prefix) {
			t.Errorf("%s: invalid interval returned %d values, error %v; want the buffer unchanged and an error", pl.Name(), len(got), err)
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
	if _, err := NewApapiPlugin(eventSet(t, ids...)); err == nil {
		t.Fatal("unschedulable set must be rejected")
	}
}

func TestIntervalValidation(t *testing.T) {
	good := testInterval(t, 4, 10)
	pl := &VoltagePlugin{}
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
	}
	for _, tc := range cases {
		if tc.make() == nil {
			t.Errorf("%s: invalid plugin config must be rejected", tc.name)
		}
	}
}

func TestTicksCoverage(t *testing.T) {
	ts := Ticks(nil, 0, 1_000_000_000, 4)
	if !slices.Equal(ts, []uint64{0, 250_000_000, 500_000_000, 750_000_000}) {
		t.Fatalf("4 Hz over 1 s: ticks %v", ts)
	}
	// A window shorter than one period still yields one sample, at its
	// start.
	ts = Ticks(nil, 500, 1000, 1)
	if !slices.Equal(ts, []uint64{500}) {
		t.Fatalf("sub-period window: ticks %v, want [500]", ts)
	}
	if Ticks(nil, 0, 100, 0) != nil {
		t.Fatal("zero rate must yield no ticks")
	}
	// Ticks appends to the caller's buffer.
	if ts := Ticks([]uint64{7}, 10, 20, 2e8); !slices.Equal(ts, []uint64{7, 10, 15}) {
		t.Fatalf("appended ticks %v, want [7 10 15]", ts)
	}
}

// TestActiveCores: socket 0 fills first, then socket 1 from its first
// core; an activity without core accounting falls back to its thread
// count; the cores are appended to the caller's buffer.
func TestActiveCores(t *testing.T) {
	p := cpusim.HaswellEP()
	for _, c := range []struct {
		act  cpusim.Activity
		want []int
	}{
		{cpusim.Activity{ActiveCores: [2]int{2, 0}, Threads: 2}, []int{-1, 0, 1}},
		{cpusim.Activity{ActiveCores: [2]int{12, 2}, Threads: 14}, []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}},
		{cpusim.Activity{Threads: 3}, []int{-1, 0, 1, 2}},
	} {
		if got := ActiveCores([]int{-1}, p, &c.act); !slices.Equal(got, c.want) {
			t.Errorf("ActiveCores of %v cores, %d threads: %v, want %v", c.act.ActiveCores, c.act.Threads, got, c.want)
		}
	}
}

func TestIntervalDurationS(t *testing.T) {
	iv := Interval{StartNs: 500_000_000, EndNs: 2_500_000_000}
	if d := iv.DurationS(); d != 2 {
		t.Fatalf("DurationS = %v", d)
	}
}
