package phaseprofile_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

// FuzzFromTrace drives post-processing with arbitrary bytes, read two
// ways:
//   - as an archive: FromTrace may fail but never panics;
//   - as an event script (see writeScript) written through a
//     trace.Writer: FromTrace of the archive and a Builder fed the
//     accepted events directly must agree bit for bit, errors
//     included. The recorder relies on this when it folds a run
//     without encoding it.
//
// The seed corpus holds one archive of the golden acquisition
// campaign (seed 42, md at 1200 MHz), bounds_test.go's hostile
// shapes and a short script.
func FuzzFromTrace(f *testing.F) {
	var golden []byte
	opts := acquisition.Options{Seed: 42, TraceSink: func(_ string, data []byte) {
		if golden == nil {
			golden = data
		}
	}}
	if _, err := acquisition.Acquire(opts, []*workloads.Workload{workloads.MustByName("md")}, []int{1200}); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, pair := range phaseprofile.HostileShapes(f, 16) {
		f.Add(pair[0])
		f.Add(pair[1])
	}
	// Two locations, one region, power, threads and a PMC; then Enter,
	// a threads annotation, power and counter samples, and Leave.
	f.Add([]byte{1, 0, 3, 0, 4, 6,
		1, 0, 0, 0, 0,
		3, 0, 0, 1, 8,
		3, 0, 5, 0, 100,
		3, 1, 0, 2, 7,
		2, 0, 9, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		phaseprofile.FromTrace(bytes.NewReader(data), "fuzz")

		archive, defs, events := writeScript(data)
		decoded, decodedErr := phaseprofile.FromTrace(bytes.NewReader(archive), "fuzz")
		b := phaseprofile.NewBuilder(defs, "fuzz")
		var direct []*phaseprofile.Phase
		var directErr error
		for _, ev := range events {
			if directErr = b.Event(ev); directErr != nil {
				break
			}
		}
		if directErr == nil {
			direct, directErr = b.Phases()
		}
		if fmt.Sprint(decodedErr) != fmt.Sprint(directErr) {
			t.Fatalf("archive: %v; direct: %v", decodedErr, directErr)
		}
		if !slices.EqualFunc(decoded, direct, samePhase) {
			t.Fatalf("archive and direct folds differ:\n%+v\n%+v", decoded, direct)
		}
	})
}

// scriptMetrics is the metric palette of an event script: every class
// of metric the fold tells apart.
var scriptMetrics = []string{
	"socket0_power", "socket1_power", phaseprofile.MetricPower,
	phaseprofile.MetricVoltage, phaseprofile.MetricThreads, phaseprofile.MetricFreq,
	"PAPI_TOT_CYC", "PAPI_TOT_INS", "unrelated",
}

// writeScript reads data as an event script and writes it through a
// trace.Writer. Byte 0 sets the locations (1–4), byte 1 the regions
// (1–4), byte 2 the metrics (0–7), each named by one following byte
// from scriptMetrics. Then every 5 bytes are an event: kind (0–3, 0
// unknown), location, time step (255 steps back 3 ns), region or
// metric ref, and value (a signed byte over 4). It returns the
// archive, its definitions and the events the Writer accepted.
func writeScript(data []byte) ([]byte, *trace.Definitions, []trace.Event) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for n := 1 + int(next()%4); n > 0; n-- {
		w.DefineLocation("")
	}
	for n := 1 + int(next()%4); n > 0; n-- {
		w.DefineRegion(fmt.Sprintf("r%d", n))
	}
	for n := int(next() % 8); n > 0; n-- {
		w.DefineMetric(scriptMetrics[int(next())%len(scriptMetrics)], "", trace.MetricAsync)
	}
	var events []trace.Event
	var now uint64
	for len(data) >= 5 {
		ev := trace.Event{Kind: trace.EventKind(next() % 4), Location: trace.Ref(next())}
		if step := next(); step == 255 {
			ev.TimeNs = now - min(now, 3)
		} else {
			ev.TimeNs = now + uint64(step)
		}
		ref := trace.Ref(next())
		ev.Region, ev.Metric = ref, ref
		if ev.Kind != trace.KindMetric {
			ev.Metric = 0
		} else {
			ev.Region = 0
		}
		ev.Value = float64(int8(next())) / 4
		if w.WriteEvent(ev) == nil {
			events = append(events, ev)
			now = ev.TimeNs
		}
	}
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes(), w.Definitions(), events
}

// samePhase compares phases with every float by bit pattern.
func samePhase(a, b *phaseprofile.Phase) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.App == b.App && a.Region == b.Region && a.Threads == b.Threads && a.FreqMHz == b.FreqMHz &&
		a.StartNs == b.StartNs && a.EndNs == b.EndNs &&
		same(a.PowerW, b.PowerW) && same(a.VoltageV, b.VoltageV) && maps.EqualFunc(a.Rates, b.Rates, same)
}
