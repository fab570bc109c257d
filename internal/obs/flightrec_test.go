package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for deterministic
// recorder durations.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testRecorder(clock *fakeClock) *FlightRecorder {
	return NewFlightRecorder(FlightRecorderConfig{
		Stages:     []string{"parse", "push"},
		Retain:     4,
		Recent:     8,
		MaxEvents:  4,
		SlowFactor: 4,
		MinSlow:    100 * time.Millisecond,
		Warmup:     4,
		Now:        clock.Now,
	})
}

// run pushes one request through the recorder: Begin, optional clock
// advance, Finish.
func run(r *FlightRecorder, clock *fakeClock, traceID string, dur time.Duration, status int) bool {
	at := r.Begin(TraceContext{TraceID: traceID, SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	clock.Advance(dur)
	return r.Finish(at, status)
}

func id(i int) string { return fmt.Sprintf("%032x", i+1) }

// stageSums folds each duration into the slot its index in ds names:
// ds[i] lists slot i's durations.
func stageSums(ds ...[]time.Duration) []StageSums {
	sums := make([]StageSums, len(ds))
	for i, slot := range ds {
		for _, d := range slot {
			sums[i].Add(d)
		}
	}
	return sums
}

func TestFlightRecorderTailSampling(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)

	// Warmup + steady state: fast, healthy requests are not retained.
	for i := 0; i < 10; i++ {
		if run(r, clock, id(i), time.Millisecond, 200) {
			t.Fatalf("fast healthy request %d retained", i)
		}
	}
	if total, kept := r.Stats(); total != 10 || kept != 0 {
		t.Fatalf("stats = %d/%d, want 10/0", total, kept)
	}

	// A slow outlier (far beyond 4× the ~1ms rolling mean and above
	// MinSlow) is retained.
	if !run(r, clock, id(10), time.Second, 200) {
		t.Fatal("slow outlier not retained")
	}
	// An errored request is retained regardless of speed.
	if !run(r, clock, id(11), time.Millisecond, 400) {
		t.Fatal("errored request not retained")
	}
	// A flagged request is retained regardless of speed and status.
	at := r.Begin(TraceContext{TraceID: id(12), SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	if !r.Flag(id(12), "quality ok->warn") {
		t.Fatal("Flag did not find the in-flight trace")
	}
	if !r.Finish(at, 200) {
		t.Fatal("flagged request not retained")
	}

	kept := r.Retained()
	if len(kept) != 3 {
		t.Fatalf("retained %d traces, want 3", len(kept))
	}
	// Newest first: flagged, errored, slow.
	if kept[0].Summary.FlagReason != "quality ok->warn" || kept[0].Summary.TraceID != id(12) {
		t.Fatalf("kept[0] = %+v", kept[0].Summary)
	}
	if kept[1].Summary.Status != 400 {
		t.Fatalf("kept[1] = %+v", kept[1].Summary)
	}
	if !kept[2].Summary.Slow || kept[2].Summary.DurationNs != int64(time.Second) {
		t.Fatalf("kept[2] = %+v", kept[2].Summary)
	}

	// The recent ring saw everything (bounded at 8, newest first).
	recent := r.Recent()
	if len(recent) != 8 {
		t.Fatalf("recent = %d, want 8 (ring bound)", len(recent))
	}
	if recent[0].TraceID != id(12) || recent[0].InFlight {
		t.Fatalf("recent[0] = %+v", recent[0])
	}
	if !recent[0].Retained || recent[3].Retained {
		t.Fatalf("retention marks wrong: %+v / %+v", recent[0], recent[3])
	}
}

func TestFlightRecorderStagesEventsAndInFlight(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)

	at := r.Begin(TraceContext{TraceID: id(0), SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	at.SetSession("s1")
	at.SetModel("m@1")
	at.SetModelVersion(3)
	at.AddStages(stageSums(
		[]time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		[]time.Duration{5 * time.Millisecond}), 1)
	clock.Advance(10 * time.Millisecond)
	at.Event("reject", "parse", 0)

	inflight := r.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("in-flight = %d, want 1", len(inflight))
	}
	got := inflight[0]
	if !got.InFlight || got.TraceID != id(0) || got.Session != "s1" || got.Model != "m@1" || got.ModelVersion != 3 {
		t.Fatalf("in-flight summary = %+v", got)
	}
	if got.Samples != 1 {
		t.Fatalf("samples = %d, want 1", got.Samples)
	}
	if len(got.Stages) != 2 {
		t.Fatalf("stages = %+v", got.Stages)
	}
	parse := got.Stages[0]
	if parse.Name != "parse" || parse.Count != 2 || parse.TotalNs != int64(6*time.Millisecond) || parse.MaxNs != int64(4*time.Millisecond) {
		t.Fatalf("parse stage = %+v", parse)
	}
	if r.Lookup(id(0)) != at {
		t.Fatal("Lookup did not find the in-flight trace")
	}

	// Event cap: only MaxEvents are stored, the rest counted.
	for i := 0; i < 10; i++ {
		at.Event("extra", "", 0)
	}
	at.Error("boom")
	if !r.Finish(at, 200) {
		t.Fatal("errored trace not retained")
	}
	if r.Lookup(id(0)) != nil {
		t.Fatal("finished trace still in flight")
	}
	kept := r.Retained()
	if len(kept) != 1 {
		t.Fatalf("retained = %d", len(kept))
	}
	tr := kept[0]
	if tr.Summary.Error != "boom" || tr.Summary.EventsDropped != 7 {
		t.Fatalf("summary = %+v", tr.Summary)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("events = %d, want MaxEvents=4", len(tr.Events))
	}
	if tr.Events[0].Name != "reject" || tr.Events[0].StartNs != int64(10*time.Millisecond) {
		t.Fatalf("events[0] = %+v", tr.Events[0])
	}
}

func TestFlightRecorderSlowThresholdWarmup(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)
	if th := r.SlowThreshold(); th != 0 {
		t.Fatalf("cold threshold = %v, want 0 (disarmed)", th)
	}
	// During warmup even an enormous request is not "slow".
	if run(r, clock, id(0), time.Hour, 200) {
		t.Fatal("warmup request retained as slow")
	}
	for i := 1; i < 8; i++ {
		run(r, clock, id(i), time.Millisecond, 200)
	}
	th := r.SlowThreshold()
	if th < 100*time.Millisecond {
		t.Fatalf("armed threshold = %v, want >= MinSlow", th)
	}
}

// TestFlightRecActiveTraceNilSafe: a nil *ActiveTrace, which is what a
// push outside HTTP carries, accepts every instrumentation call.
func TestFlightRecActiveTraceNilSafe(t *testing.T) {
	var at *ActiveTrace
	at.SetSession("s")
	at.SetModel("m@1")
	at.SetModelVersion(1)
	at.AddStages(stageSums([]time.Duration{time.Millisecond}), 1)
	at.Event("e", "", 0)
	at.Error("x")
	at.Flag("r")
	if at.TraceID() != "" {
		t.Fatal("nil trace has an id")
	}
}

func TestFlightRecorderChromeExportLinkage(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)
	at := r.Begin(TraceContext{TraceID: id(0), SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	at.SetSession("s1")
	at.AddStages(stageSums(nil, []time.Duration{3 * time.Millisecond}), 0)
	at.Event("reject", "parse", 0)
	clock.Advance(time.Second)
	at.Error("bad sample")
	r.Finish(at, 400)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spanIDs := make(map[string]bool)
	var roots, children int
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		tid, _ := ev.Args["trace_id"].(string)
		sid, _ := ev.Args["span_id"].(string)
		if tid != id(0) || sid == "" {
			t.Fatalf("span %q lacks ids: %+v", ev.Name, ev.Args)
		}
		spanIDs[sid] = true
		if _, ok := ev.Args["parent_span_id"]; ok {
			children++
		} else {
			roots++
		}
	}
	if roots != 1 || children != 2 { // "reject" event + "stage:push"
		t.Fatalf("roots=%d children=%d, want 1/2", roots, children)
	}
	// Every parent_span_id must resolve — the orphan contract
	// cmd/tracecheck enforces on the same file format.
	for _, ev := range doc.TraceEvents {
		if p, ok := ev.Args["parent_span_id"].(string); ok && !spanIDs[p] {
			t.Fatalf("orphaned span %q: parent %s not present", ev.Name, p)
		}
	}
}

// TestFlightRecorderSteadyStateAllocs is the acceptance gate: a
// healthy fast request costs zero allocations end to end once the
// free list is primed, and the stage hand-off (AddStages) is
// allocation-free always.
func TestFlightRecorderSteadyStateAllocs(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)
	tc := TraceContext{TraceID: id(0), SpanID: "00f067aa0ba902b7"}
	// Prime: first request allocates its trace buffer and warms the
	// rings.
	for i := 0; i < 16; i++ {
		run(r, clock, id(0), 0, 200)
	}
	sums := stageSums([]time.Duration{time.Millisecond}, []time.Duration{time.Millisecond})

	if allocs := testing.AllocsPerRun(500, func() {
		at := r.Begin(tc, "POST", "/v1/estimate")
		at.AddStages(sums, 1)
		r.Finish(at, 200)
	}); allocs > 0 {
		t.Fatalf("steady-state request path allocates %.2f allocs/op, want 0", allocs)
	}

	at := r.Begin(tc, "POST", "/v1/estimate")
	if allocs := testing.AllocsPerRun(500, func() {
		at.AddStages(sums, 1)
	}); allocs > 0 {
		t.Fatalf("stage hand-off allocates %.2f allocs/op, want 0", allocs)
	}
	r.Finish(at, 200)
}

// TestFlightRecorderStageHandOffMatchesPerDuration: a caller that sums
// its stage timings and hands them over in batches leaves the same
// per-slot count, total and max as one that hands over every duration
// by itself, and both equal the counts, sums and maxima of the
// durations; sums past the configured slots are dropped.
func TestFlightRecorderStageHandOffMatchesPerDuration(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)
	rng := rand.New(rand.NewSource(3))
	const n = 500
	slots := make([]int, n)
	ds := make([]time.Duration, n)
	for k := range ds {
		slots[k] = rng.Intn(3) // slot 2 is past the recorder's two stages
		ds[k] = time.Duration(rng.Int63n(int64(time.Millisecond)))
	}

	single := r.Begin(TraceContext{TraceID: id(0), SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	for k, d := range ds {
		one := make([]StageSums, 3)
		one[slots[k]].Add(d)
		single.AddStages(one, 1)
	}
	batched := r.Begin(TraceContext{TraceID: id(1), SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	sums := make([]StageSums, 3)
	var samples uint64
	for k, d := range ds {
		sums[slots[k]].Add(d)
		samples++
		if rng.Intn(40) == 0 || k == n-1 { // batches of 1 to about 100
			batched.AddStages(sums, samples)
			clear(sums)
			samples = 0
		}
	}

	var want [2]StageSummary
	for k, d := range ds {
		if s := slots[k]; s < len(want) {
			want[s].Name = []string{"parse", "push"}[s]
			want[s].Count++
			want[s].TotalNs += int64(d)
			want[s].MaxNs = max(want[s].MaxNs, int64(d))
		}
	}
	for _, got := range r.InFlight() {
		if got.Samples != n || len(got.Stages) != 2 || got.Stages[0] != want[0] || got.Stages[1] != want[1] {
			t.Fatalf("trace %s: %d samples, stages %+v; want %d samples, stages %+v",
				got.TraceID, got.Samples, got.Stages, n, want)
		}
	}
	r.Finish(single, 200)
	r.Finish(batched, 200)
}

func TestFlightRecorderConcurrent(t *testing.T) {
	clock := newFakeClock()
	r := testRecorder(clock)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				traceID := fmt.Sprintf("%031x%01d", i+1, g)
				at := r.Begin(TraceContext{TraceID: traceID, SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
				at.AddStages(stageSums([]time.Duration{time.Millisecond}, []time.Duration{time.Millisecond}), 1)
				at.Event("e", "", 0)
				if i%10 == 0 {
					r.Flag(traceID, "test")
					r.Annotate(traceID, "note", "detail")
				}
				r.InFlight()
				r.Finish(at, 200)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			total, _ := r.Stats()
			if total != 800 {
				t.Fatalf("total = %d, want 800", total)
			}
			return
		default:
			r.Recent()
			r.Retained()
			var buf bytes.Buffer
			r.WriteChromeTrace(&buf)
		}
	}
}
