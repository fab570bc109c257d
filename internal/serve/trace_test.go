package serve

import (
	"encoding/json"
	"io"
	"net/http"
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

// postTraced POSTs body with an optional inbound traceparent header
// and returns the response.
func postTraced(t *testing.T, url, traceparent, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

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
		labeledLine(t, r, 1e6, m.Predict(r)*1.2)+"\n")
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

	httpResp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var reqs RequestsResponse
	if err := dec.Decode(&reqs); err != nil {
		t.Fatalf("/debug/requests does not match the documented shape: %v\n%s", err, raw)
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
	httpResp, err = http.Get(ts.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/flightrec is not a trace document: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Args["trace_id"] == testTraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lacks the retained trace %s: %s", testTraceID, raw)
	}
}

// TestFlightRecSlowRetention exercises the rolling-threshold retention
// through the server's injected clock: fast requests warm the mean,
// then one request that straddles a clock jump is retained as slow.
func TestFlightRecSlowRetention(t *testing.T) {
	_, rows := fixture(t)
	clock := struct {
		mu  chan struct{}
		now time.Time
	}{mu: make(chan struct{}, 1), now: time.Unix(1_700_000_000, 0)}
	clock.mu <- struct{}{}
	now := func() time.Time {
		<-clock.mu
		defer func() { clock.mu <- struct{}{} }()
		return clock.now
	}
	advance := func(d time.Duration) {
		<-clock.mu
		clock.now = clock.now.Add(d)
		clock.mu <- struct{}{}
	}

	s, ts := newTestServer(t, Config{
		Now:              now,
		FlightRecWarmup:  4,
		FlightRecMinSlow: 50 * time.Millisecond,
	})
	r := rows[0]
	for i := 0; i < 8; i++ {
		resp := postTraced(t, ts.URL+"/v1/estimate?model=m", "", sampleLine(t, r, 1e6)+"\n")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if _, kept := s.FlightRecorder().Stats(); kept != 0 {
		t.Fatalf("fast warmup retained %d traces", kept)
	}

	// One slow request: hold the stream open across a clock advance.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate?model=m", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", testTraceparent)
	done := make(chan *http.Response, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- resp
	}()
	if _, err := io.WriteString(pw, sampleLine(t, r, 1e6)+"\n"); err != nil {
		t.Fatal(err)
	}
	// Only advance once the middleware has stamped the request's start
	// time — the client transport may buffer the body write before the
	// server has even seen the headers.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if len(s.FlightRecorder().InFlight()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("held stream never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	advance(time.Second)
	if _, err := io.WriteString(pw, sampleLine(t, r, 2e6)+"\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("slow stream response = %+v", resp)
	}

	kept := s.FlightRecorder().Retained()
	if len(kept) != 1 {
		t.Fatalf("retained %d traces, want 1 (the slow one)", len(kept))
	}
	sum := kept[0].Summary
	if !sum.Slow || sum.TraceID != testTraceID || sum.DurationNs < int64(time.Second) {
		t.Fatalf("slow summary = %+v", sum)
	}
}

// TestTracePathAllocs is the serving-layer acceptance gate: flight
// recording adds zero allocations per labelled sample on the warmed
// steady-state path (session push + quality monitor + recorder stage
// accounting), with the recorder otherwise idle.
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
	rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Stages: flightStages})
	at := rec.Begin(obs.TraceContext{TraceID: testTraceID, SpanID: "00f067aa0ba902b7"}, "POST", "/v1/estimate")
	defer rec.Finish(at, 200)

	cs := counterSample(r, 0)
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
				at.Stage(stageParse, time.Microsecond)
				at.Sample(stagePush, time.Microsecond)
				at.Stage(stageQuality, time.Microsecond)
				at.Stage(stageEncode, time.Microsecond)
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
		at.Stage(stageParse, time.Microsecond)
		at.Sample(stagePush, time.Microsecond)
		at.Stage(stageQuality, time.Microsecond)
		at.Stage(stageEncode, time.Microsecond)
	})
	if instrumented > baseline {
		t.Fatalf("flight recording adds %.2f allocs/op (baseline %.2f, instrumented %.2f), want 0",
			instrumented-baseline, baseline, instrumented)
	}
}
