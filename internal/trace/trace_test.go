package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/rng"
)

func buildSample(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	loc := defs.AddLocation("thread 0")
	reg := defs.AddRegion("phase_a")
	met := defs.AddMetric("power", "W", MetricAsync)
	events := []Event{
		{Kind: KindEnter, Location: loc, TimeNs: 100, Region: reg},
		{Kind: KindMetric, Location: loc, TimeNs: 150, Metric: met, Value: 98.5},
		{Kind: KindMetric, Location: loc, TimeNs: 250, Metric: met, Value: 101.25},
		{Kind: KindLeave, Location: loc, TimeNs: 300, Region: reg},
	}
	for _, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// readAll drains the reader's remaining events.
func readAll(r *Reader) ([]Event, error) {
	var out []Event
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

func TestRoundTrip(t *testing.T) {
	buf := buildSample(t)
	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	defs := r.Definitions()
	if len(defs.Locations) != 1 || defs.Locations[0].Name != "thread 0" {
		t.Fatalf("locations = %+v", defs.Locations)
	}
	if len(defs.Regions) != 1 || defs.Regions[0].Name != "phase_a" {
		t.Fatalf("regions = %+v", defs.Regions)
	}
	if len(defs.Metrics) != 1 || defs.Metrics[0].Unit != "W" || defs.Metrics[0].Mode != MetricAsync {
		t.Fatalf("metrics = %+v", defs.Metrics)
	}
	evs, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("read %d events", len(evs))
	}
	if evs[0].Kind != KindEnter || evs[0].TimeNs != 100 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Value != 98.5 || evs[2].Value != 101.25 {
		t.Fatalf("metric values wrong: %+v %+v", evs[1], evs[2])
	}
	if evs[3].Kind != KindLeave || evs[3].TimeNs != 300 {
		t.Fatalf("event 3 = %+v", evs[3])
	}
}

func TestChronologicalOrderEnforced(t *testing.T) {
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	loc := defs.AddLocation("t0")
	reg := defs.AddRegion("r")
	if err := w.WriteEvent(Event{Kind: KindEnter, Location: loc, TimeNs: 200, Region: reg}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(Event{Kind: KindLeave, Location: loc, TimeNs: 100, Region: reg}); err == nil {
		t.Fatal("out-of-order event must be rejected")
	}
}

func TestDefinitionsFrozenAfterFirstEvent(t *testing.T) {
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	loc := defs.AddLocation("t0")
	reg := defs.AddRegion("r")
	if err := w.WriteEvent(Event{Kind: KindEnter, Location: loc, TimeNs: 1, Region: reg}); err != nil {
		t.Fatal(err)
	}
	// A region added after the first event is not in the archive's
	// definitions, so an event naming it is undefined.
	late := defs.AddRegion("late")
	if err := w.WriteEvent(Event{Kind: KindLeave, Location: loc, TimeNs: 2, Region: late}); err == nil {
		t.Fatal("an event naming a late definition must be rejected")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Definitions().Regions); got != 1 {
		t.Fatalf("the archive defines %d regions, want the 1 defined before the first event", got)
	}
}

func TestUndefinedRefsRejected(t *testing.T) {
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	loc := defs.AddLocation("t0")
	if err := w.WriteEvent(Event{Kind: KindEnter, Location: loc, TimeNs: 1, Region: 5}); err == nil {
		t.Fatal("undefined region must be rejected")
	}
	if err := w.WriteEvent(Event{Kind: KindMetric, Location: loc, TimeNs: 1, Metric: 2}); err == nil {
		t.Fatal("undefined metric must be rejected")
	}
	if err := w.WriteEvent(Event{Kind: KindEnter, Location: 9, TimeNs: 1, Region: 0}); err == nil {
		t.Fatal("undefined location must be rejected")
	}
	// Refs of 2^31 and above are negative as a 32-bit int.
	for _, ref := range []Ref{1 << 31, math.MaxUint32} {
		if err := w.WriteEvent(Event{Kind: KindEnter, Location: ref, TimeNs: 1}); err == nil {
			t.Fatalf("undefined location %d must be rejected", ref)
		}
		if err := w.WriteEvent(Event{Kind: KindEnter, Location: loc, TimeNs: 1, Region: ref}); err == nil {
			t.Fatalf("undefined region %d must be rejected", ref)
		}
		if err := w.WriteEvent(Event{Kind: KindMetric, Location: loc, TimeNs: 1, Metric: ref}); err == nil {
			t.Fatalf("undefined metric %d must be rejected", ref)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE………"))); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	defs.AddLocation("t0")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("empty archive yielded %d events", len(evs))
	}
	if len(r.Definitions().Locations) != 1 {
		t.Fatal("definitions lost")
	}
}

func TestTruncatedStream(t *testing.T) {
	buf := buildSample(t)
	full := buf.Bytes()
	// Chop the stream mid-event; the reader must fail, not hang or
	// fabricate data.
	trunc := full[:len(full)-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = readAll(r)
	if err == nil {
		t.Fatal("truncated archive must surface an error")
	}
}

func TestMultiLocationInterleaving(t *testing.T) {
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	l0 := defs.AddLocation("t0")
	l1 := defs.AddLocation("t1")
	reg := defs.AddRegion("r")
	// Interleave two locations with globally ascending time.
	evs := []Event{
		{Kind: KindEnter, Location: l0, TimeNs: 10, Region: reg},
		{Kind: KindEnter, Location: l1, TimeNs: 12, Region: reg},
		{Kind: KindLeave, Location: l0, TimeNs: 20, Region: reg},
		{Kind: KindLeave, Location: l1, TimeNs: 22, Region: reg},
	}
	for _, ev := range evs {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if got[i].Location != evs[i].Location || got[i].TimeNs != evs[i].TimeNs {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], evs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any monotone random event stream round-trips exactly.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var buf bytes.Buffer
		var defs Definitions
		w := NewWriter(&buf, &defs)
		nLoc := 1 + r.Intn(4)
		var locs []Ref
		for i := 0; i < nLoc; i++ {
			l := defs.AddLocation("loc")
			locs = append(locs, l)
		}
		reg := defs.AddRegion("r")
		met := defs.AddMetric("m", "u", MetricAsync)
		var want []Event
		tNs := uint64(0)
		for i := 0; i < 200; i++ {
			tNs += uint64(r.Intn(1000))
			ev := Event{Location: locs[r.Intn(nLoc)], TimeNs: tNs}
			switch r.Intn(3) {
			case 0:
				ev.Kind = KindEnter
				ev.Region = reg
			case 1:
				ev.Kind = KindLeave
				ev.Region = reg
			default:
				ev.Kind = KindMetric
				ev.Metric = met
				ev.Value = r.NormScaled(100, 25)
			}
			if err := w.WriteEvent(ev); err != nil {
				return false
			}
			want = append(want, ev)
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := readAll(rd)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactness(t *testing.T) {
	// Delta+varint encoding should keep a realistic stream well below
	// a naive 64-bit-per-field encoding (~33 bytes/event).
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	loc := defs.AddLocation("t0")
	met := defs.AddMetric("power", "W", MetricAsync)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := w.WriteEvent(Event{
			Kind: KindMetric, Location: loc,
			TimeNs: uint64(i) * 1_000_000, Metric: met, Value: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / n
	if perEvent > 16 {
		t.Fatalf("%.1f bytes/event — encoding not compact", perEvent)
	}
	// And it must still parse.
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != n {
		t.Fatalf("read %d of %d events", count, n)
	}
}

// TestWriteEventAllocFree gates the encoder's per-event path: records
// are appended straight into the bufio buffer, so once the definition
// section is out, writing an event allocates nothing.
func TestWriteEventAllocFree(t *testing.T) {
	var defs Definitions
	w := NewWriter(io.Discard, &defs)
	loc := defs.AddLocation("core 0")
	reg := defs.AddRegion("phase")
	met := defs.AddMetric("power", "W", MetricAsync)
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		ev := Event{Kind: KindMetric, Location: loc, TimeNs: i * 50_000_000, Metric: met, Value: float64(i)}
		if i%3 == 0 {
			ev = Event{Kind: KindEnter, Location: loc, TimeNs: i * 50_000_000, Region: reg}
		}
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteEvent allocates %.1f times per event, want 0", allocs)
	}
}

// TestReaderNextAllocFree gates the decoder's per-event path: fields
// are decoded inside the bufio buffer and per-location delta state is
// a slice, so reading an event allocates nothing.
func TestReaderNextAllocFree(t *testing.T) {
	const n = 2000
	var buf bytes.Buffer
	var defs Definitions
	w := NewWriter(&buf, &defs)
	locs := []Ref{}
	for _, name := range []string{"master", "core 0", "core 1"} {
		l := defs.AddLocation(name)
		locs = append(locs, l)
	}
	reg := defs.AddRegion("phase")
	met := defs.AddMetric("power", "W", MetricAsync)
	for i := 0; i < n; i++ {
		ev := Event{Kind: KindMetric, Location: locs[i%len(locs)], TimeNs: uint64(i) * 1_000_000, Metric: met, Value: float64(i) / 7}
		if i%5 == 0 {
			ev = Event{Kind: KindLeave, Location: locs[0], TimeNs: uint64(i) * 1_000_000, Region: reg}
		}
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(n-1, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.Next allocates %.1f times per event, want 0", allocs)
	}
}
