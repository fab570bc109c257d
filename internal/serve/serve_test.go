package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

// --- fixtures --------------------------------------------------------

var (
	fixOnce  sync.Once
	fixModel *core.Model
	fixRows  []*acquisition.Row
	fixErr   error
)

func testEvents() []pmu.EventID {
	var out []pmu.EventID
	for _, n := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		out = append(out, pmu.MustByName(n).ID)
	}
	return out
}

// fixture trains one model on a two-frequency campaign — enough rows
// for a stable fit, cheap enough to share across all serve tests.
func fixture(t *testing.T) (*core.Model, []*acquisition.Row) {
	t.Helper()
	fixOnce.Do(func() {
		ds, err := acquisition.Acquire(acquisition.Options{Seed: 42, Events: testEvents()},
			workloads.Active(), []int{2000, 2400})
		if err != nil {
			fixErr = err
			return
		}
		fixRows = ds.Rows
		fixModel, fixErr = core.Train(ds.Rows, testEvents(), core.TrainOptions{})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel, fixRows
}

// newTestServer builds a Server over one registered model named "m"
// plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	m, _ := fixture(t)
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
		if _, err := cfg.Registry.Add("m", m); err != nil {
			t.Fatal(err)
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// sampleLine renders row r as one NDJSON input line at the given
// timestamp.
func sampleLine(t *testing.T, r *acquisition.Row, timeNs uint64) string {
	t.Helper()
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	b, err := json.Marshal(wireSample{TimeNs: timeNs, FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mutatedLine renders row r with one event's rate overridden.
func mutatedLine(t *testing.T, r *acquisition.Row, timeNs uint64, short string, rate float64) string {
	t.Helper()
	clone := &acquisition.Row{FreqMHz: r.FreqMHz, VoltageV: r.VoltageV,
		Rates: make(map[pmu.EventID]float64, len(r.Rates))}
	for id, v := range r.Rates {
		clone.Rates[id] = v
	}
	clone.Rates[pmu.MustByName(short).ID] = rate
	return sampleLine(t, clone, timeNs)
}

// counterSample is the direct-API equivalent of sampleLine.
func counterSample(r *acquisition.Row, timeNs uint64) core.CounterSample {
	rates := make(map[pmu.EventID]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[id] = v
	}
	return core.CounterSample{TimeNs: timeNs, FreqMHz: r.FreqMHz, VoltageV: r.VoltageV, Rates: rates}
}

// streamEstimates POSTs the lines as one NDJSON request and decodes
// every response line.
func streamEstimates(t *testing.T, ts *httptest.Server, query string, lines []string) (int, []wireEstimate, []wireError) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/estimate"+query, "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ests []wireEstimate
	var errs []wireError
	if resp.StatusCode != http.StatusOK {
		// Error responses are indented JSON documents, not NDJSON.
		return resp.StatusCode, nil, nil
	}
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"error"`)) {
			var we wireError
			if err := json.Unmarshal(line, &we); err != nil {
				t.Fatalf("bad error line %q: %v", line, err)
			}
			errs = append(errs, we)
			continue
		}
		var e wireEstimate
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad estimate line %q: %v", line, err)
		}
		ests = append(ests, e)
	}
	return resp.StatusCode, ests, errs
}

// --- plumbing endpoints ----------------------------------------------

func TestHealthAndModels(t *testing.T) {
	m, _ := fixture(t)
	reg := NewRegistry()
	if _, err := reg.Add("m", m); err != nil {
		t.Fatal(err)
	}
	if v, err := reg.Add("m", m); err != nil || v != 2 {
		t.Fatalf("redeploy version = %d, %v", v, err)
	}
	_, ts := newTestServer(t, Config{Registry: reg})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 {
		t.Fatalf("models listed = %d, want 2 versions", len(infos))
	}
	if infos[0].Version != 1 || infos[0].Latest || !infos[1].Latest {
		t.Fatalf("version flags wrong: %+v", infos)
	}
	if len(infos[0].Events) != 6 || infos[0].Estimator != "HC3" {
		t.Fatalf("model info incomplete: %+v", infos[0])
	}

	// Version pinning resolves distinct keys.
	for _, key := range []string{"m", "m@1", "m@2"} {
		if _, err := reg.Get(key); err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
	}
	if _, err := reg.Get("m@3"); err == nil {
		t.Fatal("absent version must not resolve")
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Fatal("unknown name must not resolve")
	}
}

func TestPredictBatchBitIdentical(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{})

	var req predictRequest
	req.Model = "m"
	want := make([]float64, 0, 20)
	for _, r := range rows[:20] {
		rates := make(map[string]float64, len(r.Rates))
		for id, v := range r.Rates {
			rates[pmu.Lookup(id).Name] = v
		}
		req.Rows = append(req.Rows, wireRow{FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates})
		want = append(want, m.Predict(r))
	}
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict = %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.N != 20 || len(pr.Watts) != 20 {
		t.Fatalf("predict returned %d/%d watts", pr.N, len(pr.Watts))
	}
	for i := range want {
		if pr.Watts[i] != want[i] {
			t.Fatalf("row %d: served %v, direct %v (must be bit-identical)", i, pr.Watts[i], want[i])
		}
	}
}

func TestPredictRejectsInvalidRows(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	r0 := rows[0]
	goodRates := func() map[string]float64 {
		rates := make(map[string]float64, len(r0.Rates))
		for id, v := range r0.Rates {
			rates[pmu.Lookup(id).Name] = v
		}
		return rates
	}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(resp *http.Response, status int, reason string) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != status {
			t.Fatalf("status = %d, want %d: %s", resp.StatusCode, status, body)
		}
		if reason != "" && !strings.Contains(string(body), fmt.Sprintf("%q", reason)) {
			t.Fatalf("response %s lacks reason %q", body, reason)
		}
	}

	mk := func(mut func(*wireRow)) string {
		row := wireRow{FreqMHz: float64(r0.FreqMHz), VoltageV: r0.VoltageV, Rates: goodRates()}
		mut(&row)
		b, _ := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{row}})
		return string(b)
	}

	// rawFreq swaps a verbatim frequency token into an otherwise valid
	// request, for values encoding/json cannot round-trip (NaN, Inf).
	rawFreq := func(freq string) string {
		return strings.Replace(mk(func(*wireRow) {}),
			fmt.Sprintf(`"freq_mhz":%v`, r0.FreqMHz), `"freq_mhz":`+freq, 1)
	}

	check(post(`{not json`), 400, ReasonParse)
	check(post(`{"model":"ghost","rows":[{}]}`), 404, "")
	check(post(mk(func(w *wireRow) { w.FreqMHz = -1 })), 400, ReasonBadOperPt)
	check(post(mk(func(w *wireRow) { w.Rates["PAPI_TOT_CYC"] = -5 })), 400, ReasonBadRate)
	check(post(mk(func(w *wireRow) { delete(w.Rates, "PAPI_TOT_CYC") })), 400, ReasonMissingEv)
	check(post(mk(func(w *wireRow) { w.Rates["PAPI_NOPE"] = 1 })), 400, ReasonUnknownEv)
	// Non-finite and non-integral frequencies: NaN passed the seed's
	// `FreqMHz <= 0` check as false and 2400.5 silently truncated while
	// the field was an int on the wire. NaN/Inf literals are invalid
	// JSON (parse); finite garbage must be a bad operating point.
	check(post(rawFreq("NaN")), 400, ReasonParse)
	check(post(rawFreq("-Infinity")), 400, ReasonParse)
	check(post(rawFreq("1e308")), 400, ReasonBadOperPt)
	check(post(rawFreq("2400.5")), 400, ReasonBadOperPt)
	check(post(rawFreq("0")), 400, ReasonBadOperPt)

	if got := s.Metrics().Rejected(ReasonBadRate); got != 1 {
		t.Fatalf("bad_rate rejects = %d, want 1", got)
	}
}

// --- streaming estimation --------------------------------------------

// TestEstimateStreamBitIdentical: one client streams 40 samples; every
// served instant/smoothed watt and cumulative joule must equal driving
// the OnlineEstimator and EnergyAccountant directly, bit for bit.
func TestEstimateStreamBitIdentical(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{})

	const alpha = 0.3
	var lines []string
	est, err := core.NewOnlineEstimator(m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := core.NewEnergyAccountant(m)
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		inst, smooth, joules float64
	}
	var want []ref
	for i, r := range rows[:40] {
		tns := uint64(i) * 50_000_000
		lines = append(lines, sampleLine(t, r, tns))
		e, err := est.Push(counterSample(r, tns))
		if err != nil {
			t.Fatal(err)
		}
		j, err := acct.Push(counterSample(r, tns))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ref{inst: e.InstantW, smooth: e.SmoothedW, joules: j})
	}

	status, ests, errLines := streamEstimates(t, ts, "?model=m&session=c1&alpha=0.3", lines)
	if status != 200 || len(errLines) != 0 {
		t.Fatalf("stream = %d, errors %v", status, errLines)
	}
	if len(ests) != len(want) {
		t.Fatalf("served %d estimates for %d samples", len(ests), len(want))
	}
	for i, e := range ests {
		if e.InstantW != want[i].inst || e.SmoothedW != want[i].smooth || e.TotalJ != want[i].joules {
			t.Fatalf("sample %d: served (%v, %v, %v) direct (%v, %v, %v) — must be bit-identical",
				i, e.InstantW, e.SmoothedW, e.TotalJ, want[i].inst, want[i].smooth, want[i].joules)
		}
		if e.Samples != uint64(i+1) {
			t.Fatalf("sample %d: counter %d", i, e.Samples)
		}
	}
}

// TestEstimateConcurrentClients drives 10 sessions at once (run under
// -race): each client's stream must match its own direct reference
// exactly — no cross-session state bleed, no torn EWMA updates.
func TestEstimateConcurrentClients(t *testing.T) {
	m, rows := fixture(t)
	s, ts := newTestServer(t, Config{})

	const clients = 10
	const perClient = 30
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			alpha := alphas[c]
			// Each client walks a distinct slice of the dataset.
			est, err := core.NewOnlineEstimator(m, alpha)
			if err != nil {
				errs <- err
				return
			}
			acct, err := core.NewEnergyAccountant(m)
			if err != nil {
				errs <- err
				return
			}
			var lines []string
			type ref struct{ inst, smooth, joules float64 }
			var want []ref
			for i := 0; i < perClient; i++ {
				r := rows[(c*perClient+i)%len(rows)]
				tns := uint64(i) * 100_000_000
				lines = append(lines, sampleLine(t, r, tns))
				e, err := est.Push(counterSample(r, tns))
				if err != nil {
					errs <- err
					return
				}
				j, err := acct.Push(counterSample(r, tns))
				if err != nil {
					errs <- err
					return
				}
				want = append(want, ref{e.InstantW, e.SmoothedW, j})
			}
			q := fmt.Sprintf("?model=m&session=client%d&alpha=%v", c, alpha)
			status, ests, errLines := streamEstimates(t, ts, q, lines)
			if status != 200 || len(errLines) != 0 {
				errs <- fmt.Errorf("client %d: status %d, errors %v", c, status, errLines)
				return
			}
			if len(ests) != len(want) {
				errs <- fmt.Errorf("client %d: %d estimates for %d samples", c, len(ests), len(want))
				return
			}
			for i, e := range ests {
				if e.InstantW != want[i].inst || e.SmoothedW != want[i].smooth || e.TotalJ != want[i].joules {
					errs <- fmt.Errorf("client %d sample %d: served (%v,%v,%v) direct (%v,%v,%v)",
						c, i, e.InstantW, e.SmoothedW, e.TotalJ, want[i].inst, want[i].smooth, want[i].joules)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.ActiveSessions(); got != clients {
		t.Fatalf("active sessions = %d, want %d", got, clients)
	}
}

// TestEstimateRejectsMalformedSamples: invalid samples are refused at
// the HTTP boundary with 4xx and a per-reason metrics increment, and
// the session state is not poisoned — later valid samples produce the
// same estimates as if the bad ones had never been sent.
func TestEstimateRejectsMalformedSamples(t *testing.T) {
	m, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	r0, r1 := rows[0], rows[1]

	post := func(query, line string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/estimate"+query, "application/x-ndjson", strings.NewReader(line+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Unknown model and bad alpha are refused outright.
	if got := post("?model=ghost", sampleLine(t, r0, 0)); got != 404 {
		t.Fatalf("unknown model = %d, want 404", got)
	}
	if got := post("?model=m&alpha=2", sampleLine(t, r0, 0)); got != 400 {
		t.Fatalf("bad alpha = %d, want 400", got)
	}

	// NaN rate: JSON cannot carry NaN, so it arrives as a parse error.
	nan := strings.Replace(sampleLine(t, r0, 0), `"voltage_v"`, `"rates":{"PAPI_TOT_CYC":NaN},"voltage_v"`, 1)
	if got := post("?model=m&session=bad1", nan); got != 400 {
		t.Fatalf("NaN rate = %d, want 400", got)
	}
	// Negative rate reaches the estimator's validation.
	neg := mutatedLine(t, r0, 0, "TOT_CYC", -1)
	if got := post("?model=m&session=bad2", neg); got != 400 {
		t.Fatalf("negative rate = %d, want 400", got)
	}
	if got := s.Metrics().Rejected(ReasonBadRate); got != 1 {
		t.Fatalf("bad_rate rejects = %d, want 1", got)
	}

	// Missing model event.
	missing := sampleLine(t, &acquisition.Row{FreqMHz: r0.FreqMHz, VoltageV: r0.VoltageV,
		Rates: map[pmu.EventID]float64{pmu.MustByName("TOT_CYC").ID: 1e9}}, 0)
	if got := post("?model=m&session=bad3", missing); got != 400 {
		t.Fatalf("missing event = %d, want 400", got)
	}
	if got := s.Metrics().Rejected(ReasonMissingEv); got != 1 {
		t.Fatalf("missing_event rejects = %d, want 1", got)
	}

	// Out-of-order: a named session accepts t=1000, then a second
	// request at t=10 is refused with 400 — and the state survives
	// unpoisoned: t=2000 continues exactly as a direct estimator that
	// saw only the valid samples.
	const sid = "?model=m&session=ooo&alpha=0.5"
	status, ests, _ := streamEstimates(t, ts, sid, []string{sampleLine(t, r0, 1000)})
	if status != 200 || len(ests) != 1 {
		t.Fatalf("first sample: %d, %d estimates", status, len(ests))
	}
	if got := post(sid, sampleLine(t, r1, 10)); got != 400 {
		t.Fatalf("out-of-order = %d, want 400", got)
	}
	if got := s.Metrics().Rejected(ReasonOutOfOrder); got != 1 {
		t.Fatalf("out_of_order rejects = %d, want 1", got)
	}
	status, ests, _ = streamEstimates(t, ts, sid, []string{sampleLine(t, r1, 2000)})
	if status != 200 || len(ests) != 1 {
		t.Fatalf("resumed sample: %d, %d estimates", status, len(ests))
	}
	est, _ := core.NewOnlineEstimator(m, 0.5)
	acct, _ := core.NewEnergyAccountant(m)
	est.Push(counterSample(r0, 1000))
	acct.Push(counterSample(r0, 1000))
	e2, _ := est.Push(counterSample(r1, 2000))
	j2, _ := acct.Push(counterSample(r1, 2000))
	if ests[0].SmoothedW != e2.SmoothedW || ests[0].TotalJ != j2 || ests[0].Samples != 2 {
		t.Fatalf("session state poisoned: served (%v, %v, %d) direct (%v, %v, 2)",
			ests[0].SmoothedW, ests[0].TotalJ, ests[0].Samples, e2.SmoothedW, j2)
	}

	// Mid-stream rejection: valid, invalid, valid in one request →
	// 200, one error record, and the bad sample invisible to state.
	status, ests, errLines := streamEstimates(t, ts, "?model=m&session=mid", []string{
		sampleLine(t, r0, 100),
		mutatedLine(t, r0, 150, "TOT_CYC", -1),
		sampleLine(t, r1, 200),
	})
	if status != 200 || len(ests) != 2 || len(errLines) != 1 {
		t.Fatalf("mid-stream: %d, %d estimates, %d errors", status, len(ests), len(errLines))
	}
	if errLines[0].Reason != ReasonBadRate {
		t.Fatalf("mid-stream reason = %q", errLines[0].Reason)
	}
	if ests[1].Samples != 2 {
		t.Fatal("rejected mid-stream sample must not advance the counter")
	}

	// The /metrics exposition carries the reject counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`pmcpowerd_samples_rejected_total{reason="out_of_order"} 1`,
		`pmcpowerd_samples_rejected_total{reason="bad_rate"} 2`,
		`pmcpowerd_samples_rejected_total{reason="missing_event"} 1`,
		`pmcpowerd_requests_total{path="/v1/estimate"}`,
		"pmcpowerd_estimate_latency_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestSessionEviction: idle sessions die after the TTL; a re-used id
// then starts from fresh state.
func TestSessionEviction(t *testing.T) {
	_, rows := fixture(t)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s, ts := newTestServer(t, Config{IdleTTL: time.Minute, Now: clock})

	status, ests, _ := streamEstimates(t, ts, "?model=m&session=ev", []string{sampleLine(t, rows[0], 5000)})
	if status != 200 || len(ests) != 1 {
		t.Fatalf("seed sample: %d", status)
	}
	if s.ActiveSessions() != 1 {
		t.Fatalf("active = %d, want 1", s.ActiveSessions())
	}

	// Under the TTL nothing is evicted.
	advance(30 * time.Second)
	if n := s.SweepIdleSessions(); n != 0 || s.ActiveSessions() != 1 {
		t.Fatalf("early sweep evicted %d", n)
	}
	// Past the TTL the session goes away.
	advance(45 * time.Second)
	if n := s.SweepIdleSessions(); n != 1 || s.ActiveSessions() != 0 {
		t.Fatalf("sweep evicted %d, active %d", n, s.ActiveSessions())
	}

	// Same id now starts fresh: an older timestamp is accepted and the
	// sample counter restarts.
	status, ests, _ = streamEstimates(t, ts, "?model=m&session=ev", []string{sampleLine(t, rows[1], 100)})
	if status != 200 || len(ests) != 1 {
		t.Fatalf("post-eviction sample: %d", status)
	}
	if ests[0].Samples != 1 {
		t.Fatalf("evicted session kept state: counter %d", ests[0].Samples)
	}
}

// TestSessionBackpressure: the session cap returns 429; a second
// stream on a busy session returns 409; an alpha mismatch on reopen
// returns 400.
func TestSessionBackpressure(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	line := sampleLine(t, rows[0], 0)

	open := func(id string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/estimate?model=m&session="+id, "application/x-ndjson",
			strings.NewReader(line+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := open("s1"); got != 200 {
		t.Fatalf("s1 = %d", got)
	}
	if got := open("s2"); got != 200 {
		t.Fatalf("s2 = %d", got)
	}
	if got := open("s3"); got != 429 {
		t.Fatalf("session over cap = %d, want 429", got)
	}
	if got := s.Metrics().Rejected(ReasonSessionCap); got != 1 {
		t.Fatalf("session_limit rejects = %d, want 1", got)
	}

	// Alpha mismatch on an existing session.
	resp, err := http.Post(ts.URL+"/v1/estimate?model=m&session=s1&alpha=0.25", "application/x-ndjson",
		strings.NewReader(line+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("alpha mismatch = %d, want 400", resp.StatusCode)
	}

	// A second concurrent stream on a busy session: hold s1 open with
	// a pipe, then try to attach again.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate?model=m&session=s1", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			respc <- nil
			return
		}
		respc <- resp
	}()
	if _, err := io.WriteString(pw, sampleLine(t, rows[1], 1_000_000_000)+"\n"); err != nil {
		t.Fatal(err)
	}
	held := <-respc
	if held == nil {
		t.Fatal("held stream failed")
	}
	// The first estimate line proves the stream is attached.
	br := bufio.NewReader(held.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if got := open("s1"); got != 409 {
		t.Fatalf("busy session = %d, want 409", got)
	}
	if got := s.Metrics().Rejected(ReasonSessionBusy); got != 1 {
		t.Fatalf("session_busy rejects = %d, want 1", got)
	}
	pw.Close()
	io.Copy(io.Discard, br)
	held.Body.Close()
}

// TestAnonymousStreamAndLimits: sessionless streams work and leave no
// state behind; oversized lines are rejected with their own reason.
func TestAnonymousStreamAndLimits(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{MaxLineBytes: 256})

	// Pad a line past the cap: the raw line length is what the scanner
	// bounds, so trailing whitespace counts.
	oversized := sampleLine(t, rows[0], 0) + strings.Repeat(" ", 512)
	status, ests, _ := streamEstimates(t, ts, "?model=m", []string{oversized})
	if status != 400 {
		t.Fatalf("oversized line = %d (%d estimates), want 400", status, len(ests))
	}
	if got := s.Metrics().Rejected(ReasonOversized); got != 1 {
		t.Fatalf("oversized rejects = %d, want 1", got)
	}

	// A compact synthetic sample fits the cap and streams fine without
	// a session.
	small := &acquisition.Row{FreqMHz: 2400, VoltageV: 1.0,
		Rates: map[pmu.EventID]float64{}}
	for _, id := range testEvents() {
		small.Rates[id] = 1e8
	}
	line := sampleLine(t, small, 0)
	if len(line) >= 256 {
		t.Fatalf("synthetic line too long for the test cap: %d bytes", len(line))
	}
	status, ests, errLines := streamEstimates(t, ts, "?model=m", []string{line})
	if status != 200 || len(ests) != 1 || len(errLines) != 0 {
		t.Fatalf("anonymous stream: %d, %d estimates, %v", status, len(ests), errLines)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("anonymous stream left %d sessions", got)
	}

	// An empty body is a 200 with zeroed totals, not a hang or a 500.
	resp, err := http.Post(ts.URL+"/v1/estimate?model=m", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"samples": 0`) {
		t.Fatalf("empty body = %d %s", resp.StatusCode, body)
	}
}

// TestEarlyRejectionClosesConnection is the regression test for a
// server panic any estimate client could trigger. A full-duplex
// estimate stream rejected before streaming starts returns with body
// bytes unread; net/http's post-handler body close then drains to EOF,
// which starts the connection's background read, and that read raced
// the next request's read on the same keep-alive connection ("invalid
// concurrent Body.Read call", recovered by net/http, connection reset).
// Early rejections now close the connection, so a keep-alive client
// alternating rejected and valid streams never sees a reset and the
// server never logs a panic.
func TestEarlyRejectionClosesConnection(t *testing.T) {
	m, _ := fixture(t)
	reg := NewRegistry()
	if _, err := reg.Add("m", m); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: reg, MaxLineBytes: 256})
	var serverLog syncBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Start()
	t.Cleanup(func() { ts.Close(); s.Close() })

	small := &acquisition.Row{FreqMHz: 2400, VoltageV: 1.0, Rates: map[pmu.EventID]float64{}}
	for _, id := range testEvents() {
		small.Rates[id] = 1e8
	}
	valid := sampleLine(t, small, 0) + "\n"
	// Long enough that bytes remain after the handler's bounded drain,
	// short enough that net/http's post-handler close reads to EOF.
	oversized := strings.Repeat(" ", 4096) + valid
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/estimate?model=m", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("transport error (server reset the connection?): %v", err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(got)
	}
	for i := 0; i < 60; i++ {
		resp, body := post(oversized)
		if resp.StatusCode != http.StatusBadRequest || !resp.Close {
			t.Fatalf("round %d: oversized line = %d (close %v) %s, want 400 with Connection: close", i, resp.StatusCode, resp.Close, body)
		}
		if resp, body = post(valid); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: valid stream after a rejection = %d %s", i, resp.StatusCode, body)
		}
	}
	if strings.Contains(serverLog.String(), "panic") {
		t.Fatalf("server panicked:\n%s", serverLog.String())
	}
}

func TestPredictMalformedBodiesNeverCrash(t *testing.T) {
	// Regression guard for the panic-free contract of the predict
	// handler: every conceivable malformed body must come back as a
	// clean 4xx — never a 5xx from a recovered panic — and the server
	// must stay serviceable afterwards. The underlying numeric layer
	// enforces the same contract (stats.OLSResult.Predict returns an
	// error on shape mismatch instead of panicking).
	_, rows := fixture(t)
	_, ts := newTestServer(t, Config{})

	bodies := []string{
		``,              // empty body
		`null`,          // JSON null decodes to a zero request
		`42`,            // wrong top-level type
		`{"model":"m"}`, // no rows at all
		`{"model":"m","rows":[]}`,
		`{"model":"m","rows":[{}]}`,   // zero operating point
		`{"model":"m","rows":[null]}`, // null row
		`{"model":"m","rows":[{"freq_mhz":1e999}]}`,                  // float overflow
		`{"model":"m","rows":[{"freq_mhz":2400,"voltage_v":"one"}]}`, // wrong field type
		`{"model":"m","rows":[{"freq_mhz":2400,"voltage_v":1.2}]}`,   // missing every model event
		`{"model":"m","rows":[{"freq_mhz":2400,"voltage_v":1.2,"rates":{"NOT_AN_EVENT":1}}]}`,
		`{"model":"m","extra_field":true,"rows":[{}]}`, // unknown field
		strings.Repeat(`{`, 10000),                     // pathological nesting
	}
	for i, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("body %d: transport error (connection died — handler panicked?): %v", i, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("body %d: status %d (%s), want 4xx", i, resp.StatusCode, got)
		}
	}

	// The server must still answer a well-formed request.
	r0 := rows[0]
	rates := make(map[string]float64, len(r0.Rates))
	for id, v := range r0.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	b, _ := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{{FreqMHz: float64(r0.FreqMHz), VoltageV: r0.VoltageV, Rates: rates}}})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("good request after malformed batch = %d: %s", resp.StatusCode, body)
	}
}
