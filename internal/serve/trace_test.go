package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/quality"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// TestTraceContextOnWire pins the wire contract: a minted trace
// context is echoed in the Traceparent response header and stamped on
// every NDJSON row; an inbound traceparent is adopted (same trace id,
// fresh server span id) and flows through rows, the predict response,
// and quality exemplar records.
func TestTraceContextOnWire(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{QualityThresholds: qualityTestThresholds})
	r := rows[0]

	// Minted: no inbound header.
	resp := postTraced(t, ts.URL+"/v1/estimate?model=m", "", sampleLine(t, r, 1e6)+"\n")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate = %d: %s", resp.StatusCode, raw)
	}
	tc, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response Traceparent %q malformed", resp.Header.Get("Traceparent"))
	}
	var est wireEstimate
	if err := json.Unmarshal(raw, &est); err != nil {
		t.Fatal(err)
	}
	if est.TraceID != tc.TraceID {
		t.Fatalf("row trace_id %q != header trace id %q", est.TraceID, tc.TraceID)
	}

	// Adopted: inbound traceparent keeps the trace id, gets a fresh
	// server-side span id. The labelled sample feeds the quality
	// monitor, so its exemplar carries the trace id too.
	resp = postTraced(t, ts.URL+"/v1/estimate?model=m&session=tw", testTraceparent,
		labelledLine(t, r, 1e6, m.Predict(r)*1.2)+"\n")
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	tc, ok = obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || tc.TraceID != testTraceID {
		t.Fatalf("adopted header = %q, want trace id %s", resp.Header.Get("Traceparent"), testTraceID)
	}
	if tc.SpanID == "00f067aa0ba902b7" {
		t.Fatal("server echoed the caller's span id instead of minting its own")
	}
	if err := json.Unmarshal(raw, &est); err != nil {
		t.Fatal(err)
	}
	if est.TraceID != testTraceID {
		t.Fatalf("adopted row trace_id = %q", est.TraceID)
	}

	// Predict carries the trace id too.
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	rowJSON, err := json.Marshal(wireRow{FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	resp = postTraced(t, ts.URL+"/v1/predict", testTraceparent,
		`{"model":"m","rows":[`+string(rowJSON)+`]}`)
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.TraceID != testTraceID {
		t.Fatalf("predict trace_id = %q", pr.TraceID)
	}

	// The labelled sample above was observed with the trace id; the
	// worst-residual exemplar carries it.
	var ex exemplarsResponse
	if code := getJSON(t, ts.URL+"/debug/exemplars", &ex); code != http.StatusOK {
		t.Fatalf("/debug/exemplars = %d", code)
	}
	if len(ex.Exemplars) == 0 || ex.Exemplars[0].TraceID != testTraceID {
		t.Fatalf("exemplar trace ids = %+v", ex.Exemplars)
	}
}

// TestRequestsEndpoint drives the recorder over HTTP and
// strict-decodes /debug/requests: fast healthy requests land in the
// recent ring unretained, an errored request is retained with its
// trace resolvable by id, and the latency histogram carries trace-id
// exemplars.
func TestRequestsEndpoint(t *testing.T) {
	_, rows := fixture(t)
	_, ts := newTestServer(t, Config{})
	r := rows[0]

	for i := 0; i < 3; i++ {
		resp := postTraced(t, ts.URL+"/v1/estimate?model=m", "", sampleLine(t, r, 1e6)+"\n")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// An errored request (unknown model) under a known trace id.
	resp := postTraced(t, ts.URL+"/v1/estimate?model=nope", testTraceparent, sampleLine(t, r, 1e6)+"\n")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d", resp.StatusCode)
	}

	var reqs RequestsResponse
	if code := getJSON(t, ts.URL+"/debug/requests", &reqs); code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", code)
	}
	if reqs.Service != "pmcpowerd" {
		t.Fatalf("identity block = %+v", reqs)
	}
	if reqs.RequestsTotal < 4 {
		t.Fatalf("requests_total = %d, want >= 4", reqs.RequestsTotal)
	}
	if reqs.RetainedTotal != 1 || len(reqs.RetainedTraces) != 1 {
		t.Fatalf("retained = %d traces (total %d), want 1", len(reqs.RetainedTraces), reqs.RetainedTotal)
	}
	kept := reqs.RetainedTraces[0].Summary
	if kept.TraceID != testTraceID || kept.Status != http.StatusNotFound || kept.Error == "" {
		t.Fatalf("retained summary = %+v", kept)
	}
	// The healthy streams are in the recent ring, unretained, with
	// per-stage timings.
	var healthy *obs.RequestSummary
	for i := range reqs.Recent {
		if reqs.Recent[i].Status == http.StatusOK && reqs.Recent[i].Path == "/v1/estimate" {
			healthy = &reqs.Recent[i]
			break
		}
	}
	if healthy == nil {
		t.Fatalf("no healthy estimate in recent ring: %+v", reqs.Recent)
	}
	if healthy.Retained || healthy.Samples != 1 || len(healthy.Stages) == 0 {
		t.Fatalf("healthy summary = %+v", healthy)
	}
	if len(reqs.LatencyExemplars) == 0 || reqs.LatencyExemplars[0].Path != "/v1/estimate" {
		t.Fatalf("latency exemplars = %+v", reqs.LatencyExemplars)
	}
	if ex := reqs.LatencyExemplars[0].Exemplars; len(ex) == 0 || ex[0].TraceID == "" {
		t.Fatalf("exemplar buckets = %+v", ex)
	}

	// /debug/flightrec serves the same retained trace as a Chrome
	// trace document with id-linked spans.
	httpResp, err := http.Get(ts.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if !chromeTraceHas(t, raw, testTraceID) {
		t.Fatalf("dump lacks the retained trace %s: %s", testTraceID, raw)
	}
}

// chromeTraceHas decodes a Chrome trace document and reports whether it
// holds a complete span of the given trace.
func chromeTraceHas(t *testing.T, raw []byte, traceID string) bool {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a Chrome trace document: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Args["trace_id"] == traceID {
			return true
		}
	}
	return false
}

// TestFlightRecSlowRetention drives the tail-sampled flight recorder
// end to end on the injected clock: fast requests past the warmup set
// the latency baseline and are all dropped; one held stream straddling
// a 2 s clock jump is the outlier, retained in full; a labelled stream
// whose drift trips the quality alert is retained flagged, and the
// alert dumps the recorder to disk. Both traces resolve by their
// client-pinned ids through a strict decode of /debug/requests.
func TestFlightRecSlowRetention(t *testing.T) {
	m, rows := campaignFixture(t)
	clock := newFakeClock()
	dumpPath := filepath.Join(t.TempDir(), "flightrec-alert.json")
	s, ts := newTestServer(t, Config{
		Registry:          campaignRegistry(t),
		Now:               clock.Now,
		FlightRecWarmup:   8,
		FlightRecMinSlow:  100 * time.Millisecond,
		FlightRecDumpPath: dumpPath,
		QualityWindow:     64,
		QualityThresholds: quality.Thresholds{
			WarnMAPEPct: 5, AlertMAPEPct: 12,
			WarnBiasW: -1, AlertBiasW: -1,
			MinSamples: 16,
		},
	})
	const flaggedTraceID = "deadbeefdeadbeefdeadbeefdeadbeef"
	var timeNs uint64

	// The clock stands still during these streams, so each completes
	// in zero recorder time: the fastest baseline, none of it worth
	// keeping. Sixteen is past the warmup, so slow detection is armed.
	for i := 0; i < 16; i++ {
		timeNs += 1e6
		if code, _, _ := streamEstimates(t, ts, "?model=m", []string{sampleLine(t, rows[i%len(rows)], timeNs)}); code != http.StatusOK {
			t.Fatalf("fast stream %d: HTTP %d", i, code)
		}
	}
	if total, kept := s.FlightRecorder().Stats(); kept != 0 {
		t.Fatalf("recorder retained %d of %d fast requests, want 0", kept, total)
	}

	// The outlier: a stream held open across a 2 s clock jump.
	timeNs += 1e6
	held := openHeldStream(t, http.DefaultClient, ts.URL+"/v1/estimate?model=m&session=outlier", testTraceparent,
		sampleLine(t, rows[0], timeNs))
	clock.Advance(2 * time.Second)
	held.close(t)
	if s.FlightRecorder().Lookup(testTraceID) != nil {
		t.Fatal("outlier still in flight after its stream ended")
	}

	// A labelled stream drifting +20 % against the frozen model walks
	// ok → warn → alert mid-request; the transition flags this
	// request's trace and dumps the recorder.
	lines := make([]string, 300)
	for i := range lines {
		r := rows[i%len(rows)]
		timeNs += 1e6
		lines[i] = labelledLine(t, r, timeNs, m.Predict(r)*(1+0.20*float64(i+1)/300))
	}
	flaggedTP := "00-" + flaggedTraceID + "-deadbeefdeadbeef-01"
	if code, _, errs := streamEstimatesTraced(t, ts, "?model=m&session=drifter", flaggedTP, lines); code != http.StatusOK || len(errs) != 0 {
		t.Fatalf("drift stream: status %d, %d error lines", code, len(errs))
	}

	if _, kept := s.FlightRecorder().Stats(); kept != 2 {
		t.Fatalf("recorder retained %d traces, want exactly 2 (outlier + flagged)", kept)
	}
	retained := map[string]obs.RequestSummary{}
	for _, rt := range s.FlightRecorder().Retained() {
		retained[rt.Summary.TraceID] = rt.Summary
	}
	if sum, ok := retained[testTraceID]; !ok || !sum.Slow || sum.DurationNs < int64(2*time.Second) ||
		len(sum.Stages) == 0 || sum.Samples != 1 {
		t.Fatalf("outlier summary = %+v (retained %v), want slow, >= 2 s, staged, 1 sample", sum, ok)
	}
	if sum, ok := retained[flaggedTraceID]; !ok || !strings.Contains(sum.FlagReason, "quality") {
		t.Fatalf("flagged summary = %+v (retained %v), want a flag naming the quality transition", sum, ok)
	}

	var reqs RequestsResponse
	if code := getJSON(t, ts.URL+"/debug/requests", &reqs); code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", code)
	}
	resolvable := map[string]bool{}
	for _, rt := range reqs.RetainedTraces {
		resolvable[rt.Summary.TraceID] = true
	}
	if !resolvable[testTraceID] || !resolvable[flaggedTraceID] {
		t.Fatalf("/debug/requests resolves %v, want both retained traces", resolvable)
	}
	if len(reqs.LatencyExemplars) == 0 {
		t.Fatal("latency histogram carries no trace-id exemplars")
	}

	// The dump fires inside the alerting request, so it holds the traces
	// retained before it: the outlier.
	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("alert dump not written: %v", err)
	}
	if !chromeTraceHas(t, raw, testTraceID) {
		t.Fatalf("alert dump lacks the retained outlier %s", testTraceID)
	}
	if n := metric(t, s, rejectedFamily); n != 0 {
		t.Fatalf("%v samples rejected", n)
	}
}

// TestEstimateStageHandOff checks the stream's stage sums as
// /debug/requests shows them. The stream sums each stage slot and
// hands the sums to its trace when its input drains and when it ends,
// early exits included, so the finished summaries count every line: an
// N-line stream shows N parses, pushes and encodes (and N quality
// observations when labelled) and N samples; a mid-stream reject shows
// its parse but no push or encode; a stream refused at its first line
// still shows that line's parse. A held stream whose first row is back
// shows its first line's parse and push while still in flight.
func TestEstimateStageHandOff(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{})
	const n = 40
	var timeNs uint64
	lines := func(labelled bool) []string {
		out := make([]string, n)
		for i := range out {
			timeNs += 1e6
			r := rows[i%len(rows)]
			out[i] = sampleLine(t, r, timeNs)
			if labelled {
				out[i] = labelledLine(t, r, timeNs, m.Predict(r))
			}
		}
		return out
	}
	midReject := lines(false)
	midReject[n/2] = `{"time_ns":`
	traceparent := func(i int) string { return fmt.Sprintf("00-%032x-00f067aa0ba902b7-01", i+1) }

	for i, tc := range []struct {
		name, query string
		lines       []string
		status      int
		// the stage counts and samples the finished summary shows
		parse, push, quality, encode, samples uint64
	}{
		{"accepted", "?model=m&session=handoff", lines(false), http.StatusOK, n, n, 0, n, n},
		{"labelled", "?model=m&session=handoff-labelled", lines(true), http.StatusOK, n, n, n, n, n},
		{"mid-stream-reject", "?model=m&session=handoff-mid", midReject, http.StatusOK, n, n - 1, 0, n - 1, n - 1},
		{"first-line-reject", "?model=m&session=handoff", []string{`{"time_ns":`, sampleLine(t, rows[0], 1e12)},
			http.StatusBadRequest, 1, 0, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, _ := streamEstimatesTraced(t, ts, tc.query, traceparent(i), tc.lines); code != tc.status {
				t.Fatalf("status %d, want %d", code, tc.status)
			}
			var reqs RequestsResponse
			if code := getJSON(t, ts.URL+"/debug/requests", &reqs); code != http.StatusOK {
				t.Fatalf("/debug/requests = %d", code)
			}
			var sum *obs.RequestSummary
			for k := range reqs.Recent {
				if reqs.Recent[k].TraceID == fmt.Sprintf("%032x", i+1) {
					sum = &reqs.Recent[k]
				}
			}
			if sum == nil {
				t.Fatalf("trace %d not among the recent requests: %+v", i+1, reqs.Recent)
			}
			got := map[string]obs.StageSummary{}
			for _, st := range sum.Stages {
				if st.Count == 0 || st.MaxNs < 0 || st.MaxNs > st.TotalNs {
					t.Errorf("stage %+v: want a count and 0 <= max <= total", st)
				}
				got[st.Name] = st
			}
			for name, want := range map[string]uint64{
				"parse": tc.parse, "push": tc.push, "quality": tc.quality, "encode": tc.encode,
			} {
				if got[name].Count != want {
					t.Errorf("stage %s count %d, want %d (stages %+v)", name, got[name].Count, want, sum.Stages)
				}
			}
			if sum.Samples != tc.samples {
				t.Errorf("samples %d, want %d", sum.Samples, tc.samples)
			}
		})
	}

	t.Run("in-flight", func(t *testing.T) {
		held := openHeldStream(t, http.DefaultClient, ts.URL+"/v1/estimate?model=m&session=handoff-held",
			testTraceparent, sampleLine(t, rows[0], 1e13))
		defer held.close(t)
		var reqs RequestsResponse
		if code := getJSON(t, ts.URL+"/debug/requests", &reqs); code != http.StatusOK {
			t.Fatalf("/debug/requests = %d", code)
		}
		for _, sum := range reqs.InFlight {
			if sum.TraceID != testTraceID {
				continue
			}
			counts := map[string]uint64{}
			for _, st := range sum.Stages {
				counts[st.Name] = st.Count
			}
			if sum.Samples != 1 || counts["parse"] != 1 || counts["push"] != 1 {
				t.Fatalf("in-flight summary = %+v, want 1 sample, 1 parse and 1 push", sum)
			}
			return
		}
		t.Fatalf("held stream not in flight: %+v", reqs.InFlight)
	})
}

// TestTracePathAllocs is the serving-layer acceptance gate: flight
// recording adds zero allocations per labelled sample on the warmed
// steady-state path (session push + quality monitor + the stream's
// stage sums and their hand-off to the recorder, here once per sample,
// the most often a stream hands off), with the recorder otherwise
// idle.
func TestTracePathAllocs(t *testing.T) {
	m, rows := fixture(t)
	r := rows[0]
	label := m.Predict(r) * 1.01

	mkStream := func() *core.StreamSession {
		st, err := core.NewStreamSessionRefit(m, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := mkStream()
	instr := mkStream()
	qmon := quality.NewMonitor(quality.Config{Window: 64, Exemplars: 8})
	rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Stages: flightStages[:]})
	at := rec.Begin(obs.TraceContext{TraceID: testTraceID, SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	defer rec.Finish(at, 200)

	cs := counterSample(r, 0)
	var sums [len(flightStages)]obs.StageSums
	record := func() {
		for _, stage := range []int{stageParse, stagePush, stageQuality, stageEncode} {
			sums[stage].Add(time.Microsecond)
		}
		at.AddStages(sums[:], 1)
		sums = [len(flightStages)]obs.StageSums{}
	}
	var baseNs, instrNs uint64
	warm := func(st *core.StreamSession, ns *uint64, withRec bool) {
		for i := 0; i < 200; i++ {
			*ns += 1e6
			cs.TimeNs = *ns
			est, err := st.PushLabeled(cs, label)
			if err != nil {
				t.Fatal(err)
			}
			qmon.Observe(quality.Observation{
				TimeNs: cs.TimeNs, FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV,
				Rates: cs.Rates, ModelVersion: est.ModelVersion, TraceID: testTraceID,
				PredictedW: est.InstantW, ObservedW: label,
			})
			if withRec {
				record()
			}
		}
	}
	warm(base, &baseNs, false)
	warm(instr, &instrNs, true)

	baseline := testing.AllocsPerRun(500, func() {
		baseNs += 1e6
		cs.TimeNs = baseNs
		est, err := base.PushLabeled(cs, label)
		if err != nil {
			t.Fatal(err)
		}
		qmon.Observe(quality.Observation{
			TimeNs: cs.TimeNs, FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV,
			Rates: cs.Rates, ModelVersion: est.ModelVersion, TraceID: testTraceID,
			PredictedW: est.InstantW, ObservedW: label,
		})
	})
	instrumented := testing.AllocsPerRun(500, func() {
		instrNs += 1e6
		cs.TimeNs = instrNs
		est, err := instr.PushLabeled(cs, label)
		if err != nil {
			t.Fatal(err)
		}
		qmon.Observe(quality.Observation{
			TimeNs: cs.TimeNs, FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV,
			Rates: cs.Rates, ModelVersion: est.ModelVersion, TraceID: testTraceID,
			PredictedW: est.InstantW, ObservedW: label,
		})
		record()
	})
	if instrumented > baseline {
		t.Fatalf("flight recording adds %.2f allocs/op (baseline %.2f, instrumented %.2f), want 0",
			instrumented-baseline, baseline, instrumented)
	}
}
