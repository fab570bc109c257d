package acquisition

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"pmcpower/internal/metricplugin"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/trace"
)

// blockPlugin writes a fixed block of values, or fails with err.
type blockPlugin struct {
	name    string
	metrics []metricplugin.MetricSpec
	perCore bool
	block   []float64
	err     error
}

func (p *blockPlugin) Name() string                       { return p.name }
func (p *blockPlugin) Metrics() []metricplugin.MetricSpec { return p.metrics }
func (p *blockPlugin) PerCore() bool                      { return p.perCore }

func (p *blockPlugin) Sample(dst []float64, _ *metricplugin.Interval) ([]float64, error) {
	if p.err != nil {
		return dst, p.err
	}
	return append(dst, p.block...), nil
}

// foldFixture is one run's definitions, written to archive: a node
// location, three core locations and one phase region. Its step has
// three ticks and three active cores listed as 2, 0, 1, so a core is
// not its position in the step's list, and cores sum in another order
// than their positions. Its plugins are a power plugin with one
// node-level channel and a counter plugin with two per-core PMC
// metrics, each with a block for the step.
type foldFixture struct {
	archive      bytes.Buffer
	tw           *trace.Writer
	node, region trace.Ref
	cores        []trace.Ref
	iv           metricplugin.Interval
	power, pmc   *blockPlugin
}

func newFoldFixture(t *testing.T) *foldFixture {
	t.Helper()
	f := &foldFixture{}
	f.tw = trace.NewWriter(&f.archive)
	must := func(ref trace.Ref, err error) trace.Ref {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	f.node = must(f.tw.DefineLocation("master thread"))
	for _, name := range []string{"core 0", "core 1", "core 2"} {
		f.cores = append(f.cores, must(f.tw.DefineLocation(name)))
	}
	f.region = must(f.tw.DefineRegion("phase@2"))
	f.iv = metricplugin.Interval{StartNs: 1000, EndNs: 2000, Ticks: []uint64{1000, 1500, 2000}, Cores: []int{2, 0, 1}}
	// Values whose float sums depend on the order they are added in,
	// ordered by tick, then metric, then location. TOT_CYC's per-core
	// means (1e16, -1e16, 1 at positions 0, 1, 2) sum to 0 in core
	// order and to 1 in position order.
	f.power = &blockPlugin{
		name:    "power",
		metrics: []metricplugin.MetricSpec{{Name: "socket0_power", Unit: "W", Mode: trace.MetricAsync}},
		block:   []float64{0.1, 1e16, -1e16},
	}
	f.pmc = &blockPlugin{
		name: "pmc",
		metrics: []metricplugin.MetricSpec{
			{Name: "PAPI_TOT_CYC", Unit: "events/s", Mode: trace.MetricAsync},
			{Name: "PAPI_TOT_INS", Unit: "events/s", Mode: trace.MetricAsync},
		},
		perCore: true,
		block: []float64{
			1e16, -1e16, 1, 0.3, 5, 2, // tick 1000: TOT_CYC on cores 2, 0, 1, then TOT_INS
			1e16, -1e16, 1, 1e16, 7, 3,
			1e16, -1e16, 1, -1e16, 0.5, 1,
		},
	}
	return f
}

// enter starts a run on the fixture's definitions, resolves plugins
// on it and opens its phase.
func (f *foldFixture) enter(t *testing.T, plugins ...*blockPlugin) (*phaseprofile.Builder, []runFold) {
	t.Helper()
	var refs [][]trace.Ref
	for _, pl := range plugins {
		var r []trace.Ref
		for _, m := range pl.metrics {
			ref, err := f.tw.DefineMetric(m.Name, m.Unit, m.Mode)
			if err != nil {
				t.Fatal(err)
			}
			r = append(r, ref)
		}
		refs = append(refs, r)
	}
	b := phaseprofile.NewBuilder(f.tw.Definitions(), "app")
	var runs []runFold
	for i, pl := range plugins {
		run, err := newRunFold(b, pl, refs[i], f.node, f.cores)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	if err := b.Event(trace.Event{Kind: trace.KindEnter, Location: f.node, TimeNs: f.iv.StartNs, Region: f.region}); err != nil {
		t.Fatal(err)
	}
	return b, runs
}

// phase closes b's phase and returns the run's one profile.
func (f *foldFixture) phase(t *testing.T, b *phaseprofile.Builder) *phaseprofile.Phase {
	t.Helper()
	if err := b.Event(trace.Event{Kind: trace.KindLeave, Location: f.node, TimeNs: f.iv.EndNs, Region: f.region}); err != nil {
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

// TestRunFoldMatchesMergedEvents: folding each plugin's block gives
// the profile Builder.Event gives over the archive's merged stream
// (tick by tick, then plugin by plugin, then by metric and location),
// bit for bit, and writeStep writes exactly that stream.
func TestRunFoldMatchesMergedEvents(t *testing.T) {
	f := newFoldFixture(t)
	b, runs := f.enter(t, f.power, f.pmc)
	var values []float64
	for i := range runs {
		var err error
		if values, err = runs[i].sample(b, values, &f.iv); err != nil {
			t.Fatal(err)
		}
	}
	got := f.phase(t, b)

	// The archive's events, listed from the blocks' layout.
	var events []trace.Event
	for ti, tick := range f.iv.Ticks {
		for pi, pl := range []*blockPlugin{f.power, f.pmc} {
			locs := []trace.Ref{f.node}
			if pl.perCore {
				locs = nil
				for _, c := range f.iv.Cores {
					locs = append(locs, f.cores[c])
				}
			}
			for mi := range pl.metrics {
				for l, loc := range locs {
					v := pl.block[(ti*len(pl.metrics)+mi)*len(locs)+l]
					events = append(events, trace.Event{Kind: trace.KindMetric, Location: loc, TimeNs: tick, Metric: runs[pi].refs[mi], Value: v})
				}
			}
		}
	}
	merged := phaseprofile.NewBuilder(f.tw.Definitions(), "app")
	if err := merged.Event(trace.Event{Kind: trace.KindEnter, Location: f.node, TimeNs: f.iv.StartNs, Region: f.region}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := merged.Event(ev); err != nil {
			t.Fatal(err)
		}
	}
	if want := f.phase(t, merged); !samePhaseBits(got, want) {
		t.Fatalf("block fold %+v, archive events %+v", got, want)
	}

	// writeStep writes those events, in that order.
	if err := writeStep(f.tw, runs, values, &f.iv, f.node, f.cores); err != nil {
		t.Fatal(err)
	}
	if err := f.tw.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&f.archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ev, err := rd.Next()
		if errors.Is(err, io.EOF) {
			if i != len(events) {
				t.Fatalf("writeStep wrote %d events, want %d", i, len(events))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(events) || ev != events[i] {
			t.Fatalf("writeStep event %d is %+v, want the archive order's %+v", i, ev, events[min(i, len(events)-1)])
		}
	}
}

// TestRunFoldRejectsBrokenRuns: a plugin that writes too few or too
// many values, or fails, is an error (recordRun returns it, failing the
// run) and folds nothing. A step whose ticks or cores break the
// Interval contract fails checkStep, before any plugin samples it.
func TestRunFoldRejectsBrokenRuns(t *testing.T) {
	f := newFoldFixture(t)
	for _, c := range []struct {
		name, err string
		block     []float64
		fail      error
	}{
		{"one value short", "wrote 17 values, want 3 ticks × 2 metrics × 3 locations", f.pmc.block[:17], nil},
		{"one value over", "wrote 19 values", append(f.pmc.block[:18:18], 1), nil},
		{"no values", "wrote 0 values", nil, nil},
		{"plugin error", "sensor offline", f.pmc.block, errors.New("sensor offline")},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFoldFixture(t)
			broken := *f.pmc
			broken.block, broken.err = c.block, c.fail
			b, runs := f.enter(t, f.power, &broken)
			values, err := runs[0].sample(b, nil, &f.iv)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runs[1].sample(b, values, &f.iv); err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("sample error %v, want one saying %q", err, c.err)
			}
			got := f.phase(t, b)

			f = newFoldFixture(t)
			b, runs = f.enter(t, f.power)
			if _, err := runs[0].sample(b, nil, &f.iv); err != nil {
				t.Fatal(err)
			}
			if want := f.phase(t, b); !samePhaseBits(got, want) {
				t.Fatalf("the rejected block changed the profile: %+v, want %+v", got, want)
			}
		})
	}

	for _, c := range []struct {
		name, err string
		ticks     []uint64
		cores     []int
	}{
		{"steps back in time", "tick at 1200 ns out of order", []uint64{1000, 1500, 1200}, []int{0}},
		{"starts before the step", "tick at 999 ns out of order", []uint64{999, 1500}, []int{0}},
		{"ends after the step", "tick at 2001 ns out of order", []uint64{1500, 2001}, []int{0}},
		{"core past the last", "active core 3 of a 3-core platform", []uint64{1000}, []int{0, 3}},
		{"negative core", "active core -1 of a 3-core platform", []uint64{1000}, []int{-1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			iv := f.iv
			iv.Ticks, iv.Cores = c.ticks, c.cores
			if err := checkStep(&iv, len(f.cores)); err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("checkStep error %v, want one saying %q", err, c.err)
			}
		})
	}
	if err := checkStep(&f.iv, len(f.cores)); err != nil {
		t.Fatalf("the fixture's step fails checkStep: %v", err)
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
