package acquisition

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pmcpower/internal/metricplugin"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/trace"
)

// foldFixture is one run's definitions with a node location, two core
// locations and one phase region: a power plugin with one node-level
// channel, and a counter plugin with two per-core PMC metrics.
type foldFixture struct {
	defs             *trace.Definitions
	node, region     trace.Ref
	cores            []trace.Ref
	powerRefs, pmcs  []trace.Ref
	startNs, endNs   uint64
	power, pmcSample []metricplugin.SampleValue
}

func newFoldFixture(t *testing.T) *foldFixture {
	t.Helper()
	tw := trace.NewWriter(nil)
	f := &foldFixture{startNs: 1000, endNs: 2000}
	must := func(ref trace.Ref, err error) trace.Ref {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	f.node = must(tw.DefineLocation("master thread"))
	f.cores = []trace.Ref{must(tw.DefineLocation("core 0")), must(tw.DefineLocation("core 1"))}
	f.region = must(tw.DefineRegion("phase@2"))
	f.powerRefs = []trace.Ref{must(tw.DefineMetric("socket0_power", "W", trace.MetricAsync))}
	f.pmcs = []trace.Ref{
		must(tw.DefineMetric("PAPI_TOT_CYC", "events/s", trace.MetricAsync)),
		must(tw.DefineMetric("PAPI_TOT_INS", "events/s", trace.MetricAsync)),
	}
	f.defs = tw.Definitions()
	// Values whose float sums depend on the order they are added in.
	f.power = []metricplugin.SampleValue{
		{MetricIndex: 0, TimeNs: 1000, Value: 0.1, Core: metricplugin.NodeLevel},
		{MetricIndex: 0, TimeNs: 1500, Value: 1e16, Core: metricplugin.NodeLevel},
		{MetricIndex: 0, TimeNs: 2000, Value: -1e16, Core: metricplugin.NodeLevel},
	}
	f.pmcSample = []metricplugin.SampleValue{
		{MetricIndex: 0, TimeNs: 1000, Value: 1e16, Core: 0},
		{MetricIndex: 1, TimeNs: 1000, Value: 3, Core: 1},
		{MetricIndex: 0, TimeNs: 1500, Value: 0.3, Core: 0},
		{MetricIndex: 0, TimeNs: 1500, Value: 7, Core: 1},
		{MetricIndex: 0, TimeNs: 2000, Value: -1e16, Core: 0},
	}
	return f
}

// event is s as the recorder's archive holds it.
func (f *foldFixture) event(refs []trace.Ref, s metricplugin.SampleValue) trace.Event {
	loc := f.node
	if s.Core != metricplugin.NodeLevel {
		loc = f.cores[s.Core]
	}
	return trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: s.TimeNs, Metric: refs[s.MetricIndex], Value: s.Value}
}

// phase closes b's phase and returns the run's one profile.
func (f *foldFixture) phase(t *testing.T, b *phaseprofile.Builder) *phaseprofile.Phase {
	t.Helper()
	if err := b.Event(trace.Event{Kind: trace.KindLeave, Location: f.node, TimeNs: f.endNs, Region: f.region}); err != nil {
		t.Fatal(err)
	}
	phases, err := b.Phases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 {
		t.Fatalf("%d phases, want 1", len(phases))
	}
	return phases[0]
}

// fold resolves a plugin with metrics refs on b and folds its run
// for the fixture's step.
func (f *foldFixture) fold(t *testing.T, b *phaseprofile.Builder, refs []trace.Ref, run []metricplugin.SampleValue) error {
	t.Helper()
	rf, err := newRunFold(b, "plugin", refs, f.node, f.cores)
	if err != nil {
		t.Fatal(err)
	}
	return rf.fold(b, run, f.startNs, f.endNs)
}

// enter starts a run on the fixture's definitions and opens its phase.
func (f *foldFixture) enter(t *testing.T) *phaseprofile.Builder {
	t.Helper()
	b := phaseprofile.NewBuilder(f.defs, "app")
	if err := b.Event(trace.Event{Kind: trace.KindEnter, Location: f.node, TimeNs: f.startNs, Region: f.region}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunFoldMatchesMergedEvents: folding each plugin's run in its own
// order gives the profile Builder.Event gives over the time-merged
// stream, bit for bit.
func TestRunFoldMatchesMergedEvents(t *testing.T) {
	f := newFoldFixture(t)

	merged := f.enter(t)
	for _, s := range []struct {
		refs []trace.Ref
		s    metricplugin.SampleValue
	}{
		{f.powerRefs, f.power[0]}, {f.pmcs, f.pmcSample[0]}, {f.pmcs, f.pmcSample[1]},
		{f.powerRefs, f.power[1]}, {f.pmcs, f.pmcSample[2]}, {f.pmcs, f.pmcSample[3]},
		{f.powerRefs, f.power[2]}, {f.pmcs, f.pmcSample[4]},
	} {
		if err := merged.Event(f.event(s.refs, s.s)); err != nil {
			t.Fatal(err)
		}
	}
	want := f.phase(t, merged)

	b := f.enter(t)
	if err := f.fold(t, b, f.powerRefs, f.power); err != nil {
		t.Fatal(err)
	}
	if err := f.fold(t, b, f.pmcs, f.pmcSample); err != nil {
		t.Fatal(err)
	}
	if got := f.phase(t, b); !samePhaseBits(got, want) {
		t.Fatalf("per-run fold %+v, merged events %+v", got, want)
	}
}

// TestRunFoldRejectsBrokenRuns: each run that breaks the Plugin.Sample
// contract or the plugin's table is an error, never a panic, and folds
// nothing. The core cases would each alias a neighbouring table entry
// if only the entry index were checked.
func TestRunFoldRejectsBrokenRuns(t *testing.T) {
	f := newFoldFixture(t)
	s := func(mi int, ns uint64, core int) metricplugin.SampleValue {
		return metricplugin.SampleValue{MetricIndex: mi, TimeNs: ns, Value: 1, Core: core}
	}
	for _, c := range []struct {
		name, err string
		run       []metricplugin.SampleValue
	}{
		{"steps back in time", "goes back in time", []metricplugin.SampleValue{s(0, 1500, 0), s(0, 1200, 1)}},
		{"starts before the step", "before its step", []metricplugin.SampleValue{s(0, 999, 0), s(0, 1500, 0)}},
		{"ends after the step", "after its step", []metricplugin.SampleValue{s(0, 1500, 0), s(0, 2001, 0)}},
		{"core past the last", "invalid core 2", []metricplugin.SampleValue{s(0, 1500, 2)}},
		{"core below node level", "invalid core -2", []metricplugin.SampleValue{s(1, 1500, -2)}},
		{"metric index past the end", "invalid metric index 2", []metricplugin.SampleValue{s(2, 1500, 0)}},
		{"negative metric index", "invalid metric index -1", []metricplugin.SampleValue{s(-1, 1500, 0)}},
		{"bad sample after good ones", "invalid core 5", []metricplugin.SampleValue{s(0, 1000, 0), s(1, 1500, 1), s(1, 1600, 5)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := f.enter(t)
			if err := f.fold(t, b, f.powerRefs, f.power); err != nil {
				t.Fatal(err)
			}
			if err := f.fold(t, b, f.pmcs, c.run); err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("fold error %v, want one saying %q", err, c.err)
			}
			want := f.enter(t)
			if err := f.fold(t, want, f.powerRefs, f.power); err != nil {
				t.Fatal(err)
			}
			if got, want := f.phase(t, b), f.phase(t, want); !samePhaseBits(got, want) {
				t.Fatalf("the rejected run changed the profile: %+v, want %+v", got, want)
			}
		})
	}
}

// samePhaseBits compares two profiles field by field, floats by bits.
func samePhaseBits(a, b *phaseprofile.Phase) bool {
	if math.Float64bits(a.PowerW) != math.Float64bits(b.PowerW) ||
		math.Float64bits(a.VoltageV) != math.Float64bits(b.VoltageV) ||
		len(a.Rates) != len(b.Rates) {
		return false
	}
	for id, r := range a.Rates {
		if rb, ok := b.Rates[id]; !ok || math.Float64bits(r) != math.Float64bits(rb) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.PowerW, ac.VoltageV, ac.Rates = 0, 0, nil
	bc.PowerW, bc.VoltageV, bc.Rates = 0, 0, nil
	return reflect.DeepEqual(ac, bc)
}
