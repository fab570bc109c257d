package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// --- fixtures --------------------------------------------------------

var (
	fixOnce  sync.Once
	fixModel *core.Model
	fixRows  []*acquisition.Row
	fixErr   error

	campaignOnce  sync.Once
	campaignModel *core.Model
	campaignRows  []*acquisition.Row
	campaignErr   error
)

func testEvents() []pmu.EventID {
	var out []pmu.EventID
	for _, n := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		out = append(out, pmu.MustByName(n).ID)
	}
	return out
}

// train acquires the seed-42 campaign over the six test events at the
// given frequencies and fits one model on it.
func train(freqs []int) (*core.Model, []*acquisition.Row, error) {
	ds, err := acquisition.Acquire(acquisition.Options{Seed: 42, Events: testEvents()},
		workloads.Active(), freqs)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.Train(ds.Rows, testEvents(), core.TrainOptions{})
	return m, ds.Rows, err
}

// fixture trains one model on a two-frequency campaign — enough rows
// for a stable fit, cheap enough to share across all serve tests. The
// golden transcripts under testdata depend on it.
func fixture(t *testing.T) (*core.Model, []*acquisition.Row) {
	t.Helper()
	fixOnce.Do(func() { fixModel, fixRows, fixErr = train([]int{2000, 2400}) })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel, fixRows
}

// campaignFixture trains on every Haswell P-state, 1200–2600 MHz: the
// campaign the stress tests' accuracy, latency and drift bounds were
// set on.
func campaignFixture(t *testing.T) (*core.Model, []*acquisition.Row) {
	t.Helper()
	campaignOnce.Do(func() {
		campaignModel, campaignRows, campaignErr = train([]int{1200, 1600, 2000, 2400, 2600})
	})
	if campaignErr != nil {
		t.Fatal(campaignErr)
	}
	return campaignModel, campaignRows
}

// campaignRegistry serves the campaign model as "m".
func campaignRegistry(t *testing.T) *Registry {
	t.Helper()
	m, _ := campaignFixture(t)
	reg := NewRegistry()
	if _, err := reg.Add("m", m); err != nil {
		t.Fatal(err)
	}
	return reg
}

// newTestServer builds a Server over one registered model named "m"
// (the fixture's, unless cfg brings a registry) plus an httptest front
// end. net/http recovers a handler panic and reports it on the
// server's error log, so the log is captured and a panic fails the
// test at cleanup, even one no client noticed.
func newTestServer(t *testing.T, cfg Config, setup ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		m, _ := fixture(t)
		cfg.Registry = NewRegistry()
		if _, err := cfg.Registry.Add("m", m); err != nil {
			t.Fatal(err)
		}
	}
	s := New(cfg)
	for _, f := range setup {
		f(s)
	}
	var errLog syncBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		if logged := errLog.String(); strings.Contains(logged, "panic") {
			t.Errorf("net/http recovered a handler panic:\n%s", logged)
		}
	})
	return s, ts
}

// fakeClock is an injectable Config.Now that moves only when the test
// advances it; it is safe for concurrent use.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// rejectedFamily counts rejected samples and refused requests, one
// series per reason.
const rejectedFamily = "pmcpowerd_samples_rejected_total"

// metric sums the samples of one family in s's metrics exposition whose
// label sets carry every given key/value pair. With no pairs it sums
// the whole family, so a zero check on rejectedFamily covers every
// reason, present or future.
func metric(t *testing.T, s *Server, family string, kv ...string) float64 {
	t.Helper()
	var want []string
	for i := 0; i+1 < len(kv); i += 2 {
		want = append(want, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	var sum float64
	for _, line := range strings.Split(s.Metrics().Render(), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		labels, value := rest[:sp], rest[sp+1:]
		match := true
		for _, w := range want {
			match = match && strings.Contains(labels, w)
		}
		if !match {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// sampleLine renders row r as one NDJSON input line at the given
// timestamp.
func sampleLine(t *testing.T, r *acquisition.Row, timeNs uint64) string {
	t.Helper()
	return wireLine(t, r, timeNs, nil)
}

// labelledLine is sampleLine carrying a measured-power label.
func labelledLine(t *testing.T, r *acquisition.Row, timeNs uint64, powerW float64) string {
	t.Helper()
	return wireLine(t, r, timeNs, func(w *wireSample) { w.PowerW = &powerW })
}

// wireLine renders row r at timeNs after an optional edit of its wire
// form, the way a broken client would send it.
func wireLine(t *testing.T, r *acquisition.Row, timeNs uint64, edit func(*wireSample)) string {
	t.Helper()
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	w := wireSample{TimeNs: timeNs, FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates}
	if edit != nil {
		edit(&w)
	}
	b, err := json.Marshal(w)
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

// streamOracle is the arithmetic of a frozen estimate stream written
// out in the test: Equation 1 by Model.Predict, the EWMA, and the
// trapezoidal energy integral. The server is compared with it, not
// with the code it runs.
type streamOracle struct {
	m      *core.Model
	alpha  float64
	n      uint64
	lastNs uint64
	// lastW is the previous instant, the trapezoid's left edge.
	lastW, smoothed, joules float64
}

// push folds row r at timeNs into the oracle and returns the instant
// and smoothed watts and the cumulative joules.
func (o *streamOracle) push(r *acquisition.Row, timeNs uint64) (inst, smoothed, joules float64) {
	inst = o.m.Predict(r)
	if o.n == 0 {
		o.smoothed = inst
	} else {
		o.smoothed = o.alpha*inst + (1-o.alpha)*o.smoothed
		dt := float64(timeNs-o.lastNs) / 1e9
		o.joules += dt * (inst + o.lastW) / 2
	}
	o.n++
	o.lastNs, o.lastW = timeNs, inst
	return inst, o.smoothed, o.joules
}

// newPost builds a POST of body to url with the NDJSON content type
// and, when traceparent is non-empty, an inbound W3C trace context.
func newPost(url, traceparent string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	return req, nil
}

// postTraced POSTs body with an optional inbound traceparent header
// and returns the response.
func postTraced(t *testing.T, url, traceparent, body string) *http.Response {
	t.Helper()
	req, err := newPost(url, traceparent, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ndjson joins lines into one request body.
func ndjson(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// estimateReply is one /v1/estimate exchange, decoded: the status, the
// Retry-After hint, the estimate rows and the error records, a refused
// stream's rejection document included.
type estimateReply struct {
	status     int
	retryAfter string
	ests       []wireEstimate
	errs       []wireError
}

// postEstimate POSTs body to ts's /v1/estimate with query and an
// optional inbound traceparent, and decodes the reply. It does not
// touch testing.T, so spawned goroutines may call it.
func postEstimate(ts *httptest.Server, query, traceparent, body string) (estimateReply, error) {
	req, err := newPost(ts.URL+"/v1/estimate"+query, traceparent, strings.NewReader(body))
	if err != nil {
		return estimateReply{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return estimateReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return estimateReply{}, err
	}
	out := estimateReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	// A refusal, and the totals of an empty body, come back as one
	// indented JSON document; a stream is NDJSON, one row per line.
	docs := [][]byte{raw}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		docs = bytes.Split(raw, []byte("\n"))
	}
	for _, doc := range docs {
		if len(bytes.TrimSpace(doc)) == 0 {
			continue
		}
		if bytes.Contains(doc, []byte(`"error"`)) {
			var we wireError
			if err := json.Unmarshal(doc, &we); err != nil {
				return out, fmt.Errorf("bad error record %q: %w", doc, err)
			}
			out.errs = append(out.errs, we)
			continue
		}
		var e wireEstimate
		if err := json.Unmarshal(doc, &e); err != nil {
			return out, fmt.Errorf("bad estimate row %q: %w", doc, err)
		}
		out.ests = append(out.ests, e)
	}
	return out, nil
}

// streamEstimates POSTs the lines as one NDJSON request and decodes
// every response line.
func streamEstimates(t *testing.T, ts *httptest.Server, query string, lines []string) (int, []wireEstimate, []wireError) {
	t.Helper()
	return streamEstimatesTraced(t, ts, query, "", lines)
}

// streamEstimatesTraced is streamEstimates with an optional inbound
// traceparent header.
func streamEstimatesTraced(t *testing.T, ts *httptest.Server, query, traceparent string, lines []string) (int, []wireEstimate, []wireError) {
	t.Helper()
	r, err := postEstimate(ts, query, traceparent, ndjson(lines))
	if err != nil {
		t.Fatal(err)
	}
	return r.status, r.ests, r.errs
}

// heldStream is an estimate stream kept open on purpose: until close,
// its session stays busy and it holds an admission slot.
type heldStream struct {
	in   *io.PipeWriter
	resp *http.Response
	rows *bufio.Reader
}

// openHeldStream starts a stream to url through client, with an
// optional inbound traceparent, sends firstLine and reads its row back:
// when it returns, the request is admitted, traced and attached to its
// session.
func openHeldStream(t *testing.T, client *http.Client, url, traceparent, firstLine string) *heldStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := newPost(url, traceparent, pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	// Ending the input lets the handler return, so the server's cleanup
	// does not wait on this stream when the test stops early.
	t.Cleanup(func() { pw.Close() })
	h := &heldStream{in: pw}
	h.send(t, firstLine)
	select {
	case h.resp = <-respc:
	case err := <-errc:
		t.Fatalf("held stream: %v", err)
	}
	h.rows = bufio.NewReader(h.resp.Body)
	if h.resp.StatusCode != http.StatusOK {
		t.Fatalf("held stream: HTTP %d", h.resp.StatusCode)
	}
	if row, err := h.rows.ReadString('\n'); err != nil {
		t.Fatalf("held stream's first row: %q, %v", row, err)
	}
	return h
}

// send writes one more line to the stream.
func (h *heldStream) send(t *testing.T, line string) {
	t.Helper()
	if _, err := io.WriteString(h.in, line+"\n"); err != nil {
		t.Fatal(err)
	}
}

// close ends the stream's input and reads its reply to the end: the
// server has finished the request when it returns. It returns the rows
// after the first.
func (h *heldStream) close(t *testing.T) []byte {
	t.Helper()
	h.in.Close()
	rest, err := io.ReadAll(h.rows)
	h.resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rest
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
		if _, err := reg.Resolve(key); err != nil {
			t.Fatalf("Resolve(%q): %v", key, err)
		}
	}
	if _, err := reg.Resolve("m@3"); err == nil {
		t.Fatal("absent version must not resolve")
	}
	if _, err := reg.Resolve("nope"); err == nil {
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

	if got := metric(t, s, rejectedFamily, "reason", ReasonBadRate); got != 1 {
		t.Fatalf("bad_rate rejects = %v, want 1", got)
	}

	// One verdict for both endpoints: each fault core.Model.Estimate
	// owns, sent as a stream's first line and as predict's row 1, gets
	// 400 with one reason, and predict's error is the stream's behind
	// the row number.
	for _, f := range []struct {
		name, reason string
		edit         func(*wireRow)
	}{
		{"missing-model-event", ReasonMissingEv, func(w *wireRow) { delete(w.Rates, "PAPI_STL_CCY") }},
		{"negative-model-rate", ReasonBadRate, func(w *wireRow) { w.Rates["PAPI_LST_INS"] = -1 }},
		{"negative-other-rate", ReasonBadRate, func(w *wireRow) { w.Rates["PAPI_L1_DCM"] = -1 }},
		{"zero-voltage", ReasonBadOperPt, func(w *wireRow) { w.VoltageV = 0 }},
		{"overflowing-voltage", ReasonNonFinite, func(w *wireRow) { w.VoltageV = 1e200 }},
	} {
		row := rowToWire(rows[1])
		f.edit(&row)
		line, err := json.Marshal(wireSample{TimeNs: 1, FreqMHz: row.FreqMHz, VoltageV: row.VoltageV, Rates: row.Rates})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := postEstimate(ts, "?model=m", "", string(line)+"\n")
		if err != nil {
			t.Fatal(err)
		}
		if stream.status != http.StatusBadRequest || len(stream.errs) != 1 || stream.errs[0].Reason != f.reason {
			t.Fatalf("%s: stream answered HTTP %d %+v, want 400 %q", f.name, stream.status, stream.errs, f.reason)
		}
		b, _ := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{rowToWire(rows[0]), row}})
		resp := post(string(b))
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := "serve: row 1: " + stream.errs[0].Error; resp.StatusCode != http.StatusBadRequest || we.Reason != f.reason || we.Error != want {
			t.Fatalf("%s: predict answered HTTP %d %+v, want 400 %q %q", f.name, resp.StatusCode, we, f.reason, want)
		}
	}
}

// TestEventNamesResolveOneWay sends rows whose event names fault, each
// 40 times, to both endpoints: as predict's row 1, and as a stream's
// first line both plain (the fast scan reads it first) and with an
// escaped key (only the decoder reads it). Every send of a row gets the
// same refusal, whatever order map iteration visits its names in: the
// lowest unknown name, the empty name included, and an event named
// under both its spellings refused as a parse error.
func TestEventNamesResolveOneWay(t *testing.T) {
	if pmu.NumEvents() > 64 {
		t.Fatalf("%d events overflow the fast scan's 64-bit event mask", pmu.NumEvents())
	}
	_, rows := fixture(t)
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, reason, err string
		extra             map[string]float64
	}{
		{"two-spellings", ReasonParse, `sample names one event twice: "LST_INS" and "PAPI_LST_INS"`,
			map[string]float64{"LST_INS": 1}},
		{"two-unknown", ReasonUnknownEv, `sample references unknown event "NO_SUCH_A"`,
			map[string]float64{"NO_SUCH_B": 1, "NO_SUCH_A": 1}},
		{"empty-unknown", ReasonUnknownEv, `sample references unknown event ""`,
			map[string]float64{"NO_SUCH_A": 1, "": 1}},
		{"unknown-beats-two-spellings", ReasonUnknownEv, `sample references unknown event "NO_SUCH_A"`,
			map[string]float64{"LST_INS": 1, "NO_SUCH_A": 1}},
	} {
		row := rowToWire(rows[1])
		maps.Copy(row.Rates, tc.extra)
		line, err := json.Marshal(wireSample{TimeNs: 1, FreqMHz: row.FreqMHz, VoltageV: row.VoltageV, Rates: row.Rates})
		if err != nil {
			t.Fatal(err)
		}
		plain := string(line)
		escaped := strings.Replace(plain, `"time_ns"`, `"time_\u006es"`, 1)
		predict, err := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{rowToWire(rows[0]), row}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			for _, l := range []string{plain, escaped} {
				got, err := postEstimate(ts, "?model=m", "", l+"\n")
				if err != nil {
					t.Fatal(err)
				}
				if got.status != http.StatusBadRequest || len(got.errs) != 1 ||
					got.errs[0].Reason != tc.reason || got.errs[0].Error != "serve: "+tc.err {
					t.Fatalf("%s, send %d of %q: stream answered HTTP %d %+v, want 400 %q %q",
						tc.name, i, l, got.status, got.errs, tc.reason, "serve: "+tc.err)
				}
			}
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(predict))
			if err != nil {
				t.Fatal(err)
			}
			var we wireError
			err = json.NewDecoder(resp.Body).Decode(&we)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := "serve: row 1: " + tc.err; resp.StatusCode != http.StatusBadRequest || we.Reason != tc.reason || we.Error != want {
				t.Fatalf("%s, send %d: predict answered HTTP %d %+v, want 400 %q %q",
					tc.name, i, resp.StatusCode, we, tc.reason, want)
			}
		}
	}
}

// --- streaming estimation --------------------------------------------

// TestEstimateStreamBitIdentical: one client streams 40 samples; every
// served instant/smoothed watt and cumulative joule must equal the
// test's own Equation-1, EWMA and trapezoid arithmetic, bit for bit.
func TestEstimateStreamBitIdentical(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{})

	const alpha = 0.3
	var lines []string
	oracle := streamOracle{m: m, alpha: alpha}
	type ref struct {
		inst, smooth, joules float64
	}
	var want []ref
	for i, r := range rows[:40] {
		tns := uint64(i) * 50_000_000
		lines = append(lines, sampleLine(t, r, tns))
		inst, smooth, j := oracle.push(r, tns)
		want = append(want, ref{inst: inst, smooth: smooth, joules: j})
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

// request is one POST to /v1/estimate: its query and NDJSON body.
type request struct{ query, body string }

// postConcurrently runs one goroutine per client, all at once: client i
// posts its requests in order and stops at its first transport error.
func postConcurrently(ts *httptest.Server, clients [][]request) ([][]estimateReply, error) {
	replies := make([][]estimateReply, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, reqs := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range reqs {
				r, err := postEstimate(ts, req.query, "", req.body)
				if err != nil {
					errs[i] = fmt.Errorf("client %d, %s: %w", i, req.query, err)
					return
				}
				replies[i] = append(replies[i], r)
			}
		}()
	}
	wg.Wait()
	return replies, errors.Join(errs...)
}

// TestEstimateConcurrentClients drives concurrent clients (run under
// -race). Ten named sessions at once must each match their own direct
// reference exactly: no cross-session state bleed, no torn EWMA
// updates. Then, on the five-P-state model, bursts of short anonymous
// streams and tenants that reconnect to their named sessions round
// after round must all be served without a rejection, within the
// accuracy and push-latency bounds, with one session per tenant.
func TestEstimateConcurrentClients(t *testing.T) {
	m, rows := fixture(t)
	s, ts := newTestServer(t, Config{})

	const clients = 10
	const perClient = 30
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	type ref struct{ inst, smooth, joules float64 }
	reqs := make([][]request, clients)
	want := make([][]ref, clients)
	for c := 0; c < clients; c++ {
		// Each client walks a distinct slice of the dataset.
		oracle := streamOracle{m: m, alpha: alphas[c]}
		var lines []string
		for i := 0; i < perClient; i++ {
			r := rows[(c*perClient+i)%len(rows)]
			tns := uint64(i) * 100_000_000
			lines = append(lines, sampleLine(t, r, tns))
			inst, smooth, j := oracle.push(r, tns)
			want[c] = append(want[c], ref{inst, smooth, j})
		}
		reqs[c] = []request{{fmt.Sprintf("?model=m&session=client%d&alpha=%v", c, alphas[c]), ndjson(lines)}}
	}
	replies, err := postConcurrently(ts, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for c, rs := range replies {
		r := rs[0]
		if r.status != 200 || len(r.errs) != 0 || len(r.ests) != perClient {
			t.Fatalf("client %d: status %d, %d estimates, errors %v", c, r.status, len(r.ests), r.errs)
		}
		for i, e := range r.ests {
			if w := want[c][i]; e.InstantW != w.inst || e.SmoothedW != w.smooth || e.TotalJ != w.joules {
				t.Fatalf("client %d sample %d: served (%v,%v,%v) direct (%v,%v,%v)",
					c, i, e.InstantW, e.SmoothedW, e.TotalJ, w.inst, w.smooth, w.joules)
			}
		}
	}
	if got := s.sessions.count(); got != clients {
		t.Fatalf("active sessions = %d, want %d", got, clients)
	}

	// Bursts of interactive clients on the five-P-state model.
	_, crows := campaignFixture(t)
	cs, cts := newTestServer(t, Config{Registry: campaignRegistry(t)})
	const bursts, burstClients, perBurst = 3, 8, 40
	var truth, served []float64
	for b := 0; b < bursts; b++ {
		reqs := make([][]request, burstClients)
		var want []float64
		for c := range reqs {
			lines := make([]string, 0, perBurst)
			for i := 0; i < perBurst; i++ {
				r := crows[(b*burstClients*perBurst+c*perBurst+i)%len(crows)]
				lines = append(lines, sampleLine(t, r, uint64(i+1)*1e6))
				want = append(want, r.PowerW)
			}
			reqs[c] = []request{{"?model=m", ndjson(lines)}}
		}
		replies, err := postConcurrently(cts, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for c, rs := range replies {
			if r := rs[0]; r.status != 200 || len(r.ests) != perBurst {
				t.Fatalf("burst %d client %d: HTTP %d, %d estimates, errors %v", b, c, r.status, len(r.ests), r.errs)
			}
			for _, e := range rs[0].ests {
				if math.IsNaN(e.InstantW) || math.IsInf(e.InstantW, 0) {
					t.Fatalf("burst %d client %d: non-finite estimate %v", b, c, e.InstantW)
				}
				served = append(served, e.InstantW)
			}
		}
		truth = append(truth, want...)
	}
	if got := metric(t, cs, "pmcpowerd_estimates_total"); got != bursts*burstClients*perBurst {
		t.Fatalf("served %v estimates, want %d", got, bursts*burstClients*perBurst)
	}
	if n := metric(t, cs, rejectedFamily); n != 0 {
		t.Fatalf("%v samples rejected", n)
	}
	if p99, ok := cs.metrics.estimateLatency.Snapshot().Quantile(0.99); !ok || p99 >= 0.05 {
		t.Fatalf("p99 push latency %.1f ms (ok %v), want under 50 ms", p99*1e3, ok)
	}
	if mape := stats.MAPE(truth, served); mape >= 10 {
		t.Fatalf("served MAPE %.2f%% >= 10%%", mape)
	}
	if code := getJSON(t, cts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after the bursts = %d", code)
	}

	// Tenants: tenant k streams every row j with j%tenants == k, three
	// reconnect rounds on its named session, all tenants at once.
	const tenants, rounds = 6, 3
	reqs = make([][]request, tenants)
	tenantTruth := make([][]float64, tenants)
	for k := range reqs {
		var timeNs uint64
		for round := 0; round < rounds; round++ {
			var lines []string
			for j := k; j < len(crows); j += tenants {
				timeNs += 1e6
				lines = append(lines, sampleLine(t, crows[j], timeNs))
				tenantTruth[k] = append(tenantTruth[k], crows[j].PowerW)
			}
			reqs[k] = append(reqs[k], request{fmt.Sprintf("?model=m&session=tenant-%d", k), ndjson(lines)})
		}
	}
	if replies, err = postConcurrently(cts, reqs); err != nil {
		t.Fatal(err)
	}
	for k, rs := range replies {
		var pred []float64
		for round, r := range rs {
			if r.status != 200 || len(r.errs) != 0 {
				t.Fatalf("tenant %d round %d: HTTP %d, %d error records", k, round, r.status, len(r.errs))
			}
			for _, e := range r.ests {
				pred = append(pred, e.InstantW)
			}
		}
		if mape := stats.MAPE(tenantTruth[k], pred); mape >= 12 {
			t.Fatalf("tenant %d MAPE %.2f%% >= 12%%", k, mape)
		}
	}
	if n := cs.sessions.count(); n != tenants {
		t.Fatalf("%d live sessions, want %d", n, tenants)
	}
	if n := metric(t, cs, "pmcpowerd_sessions_created_total"); n != tenants {
		t.Fatalf("%v sessions created, want %d (reconnects must reuse)", n, tenants)
	}
	if n := metric(t, cs, rejectedFamily); n != 0 {
		t.Fatalf("%v samples rejected", n)
	}
	if code := getJSON(t, cts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after the tenants = %d", code)
	}
}

// TestEstimateRejectsMalformedSamples: invalid samples are refused at
// the HTTP boundary with 4xx and a per-reason metrics increment, and
// the session state is not poisoned — later valid samples produce the
// same estimates as if the bad ones had never been sent. Every
// malformed shape a hostile or broken client can send is classified,
// alone, mid-stream and in a concurrent flood; counters that drop out
// of a stream cost only their own samples; and no rejected line ever
// counts as a served estimate.
func TestEstimateRejectsMalformedSamples(t *testing.T) {
	m, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	r0, r1 := rows[0], rows[1]
	served := 0 // estimate rows received, to check pmcpowerd_estimates_total

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
	if got := metric(t, s, rejectedFamily, "reason", ReasonBadRate); got != 1 {
		t.Fatalf("bad_rate rejects = %v, want 1", got)
	}

	// Missing model event.
	missing := sampleLine(t, &acquisition.Row{FreqMHz: r0.FreqMHz, VoltageV: r0.VoltageV,
		Rates: map[pmu.EventID]float64{pmu.MustByName("TOT_CYC").ID: 1e9}}, 0)
	if got := post("?model=m&session=bad3", missing); got != 400 {
		t.Fatalf("missing event = %d, want 400", got)
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonMissingEv); got != 1 {
		t.Fatalf("missing_event rejects = %v, want 1", got)
	}

	// Out-of-order: a named session accepts t=1000, then a second
	// request at t=10 is refused with 400 — and the state survives
	// unpoisoned: t=2000 continues exactly as a direct estimator that
	// saw only the valid samples.
	const sid = "?model=m&session=ooo&alpha=0.5"
	status, ests, _ := streamEstimates(t, ts, sid, []string{sampleLine(t, r0, 1000)})
	served += len(ests)
	if status != 200 || len(ests) != 1 {
		t.Fatalf("first sample: %d, %d estimates", status, len(ests))
	}
	if got := post(sid, sampleLine(t, r1, 10)); got != 400 {
		t.Fatalf("out-of-order = %d, want 400", got)
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonOutOfOrder); got != 1 {
		t.Fatalf("out_of_order rejects = %v, want 1", got)
	}
	status, ests, _ = streamEstimates(t, ts, sid, []string{sampleLine(t, r1, 2000)})
	served += len(ests)
	if status != 200 || len(ests) != 1 {
		t.Fatalf("resumed sample: %d, %d estimates", status, len(ests))
	}
	oracle := streamOracle{m: m, alpha: 0.5}
	oracle.push(r0, 1000)
	_, smooth2, j2 := oracle.push(r1, 2000)
	if ests[0].SmoothedW != smooth2 || ests[0].TotalJ != j2 || ests[0].Samples != 2 {
		t.Fatalf("session state poisoned: served (%v, %v, %d) direct (%v, %v, 2)",
			ests[0].SmoothedW, ests[0].TotalJ, ests[0].Samples, smooth2, j2)
	}

	// Mid-stream rejection: valid, invalid, valid in one request →
	// 200, one error record, and the bad sample invisible to state.
	status, ests, errLines := streamEstimates(t, ts, "?model=m&session=mid", []string{
		sampleLine(t, r0, 100),
		mutatedLine(t, r0, 150, "TOT_CYC", -1),
		sampleLine(t, r1, 200),
	})
	served += len(ests)
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

	// Each malformed shape alone: HTTP 400 naming its reason, and one
	// increment of that reason's counter.
	negPower := -5.0
	probes := []struct {
		name, line, query, reason string
		midStream                 bool // also sent as a mid-stream line
	}{
		{"truncated-json", `{"time_ns":1,`, "", ReasonParse, true},
		{"not-json", `!!! not json at all`, "", ReasonParse, true},
		{"unknown-field", `{"bogus_field":1}`, "", ReasonParse, true},
		{"string-frequency", `{"time_ns":1,"freq_mhz":"NaN","voltage_v":1,"rates":{}}`, "", ReasonParse, true},
		{"huge-frequency", wireLine(t, r0, 1, func(w *wireSample) { w.FreqMHz = 1e308 }), "", ReasonBadOperPt, true},
		{"fractional-frequency", wireLine(t, r0, 1, func(w *wireSample) { w.FreqMHz = 2400.5 }), "", ReasonBadOperPt, true},
		{"negative-frequency", wireLine(t, r0, 1, func(w *wireSample) { w.FreqMHz = -2000 }), "", ReasonBadOperPt, true},
		{"negative-voltage", wireLine(t, r0, 1, func(w *wireSample) { w.VoltageV = -1 }), "", ReasonBadOperPt, true},
		{"unknown-event", wireLine(t, r0, 1, func(w *wireSample) { w.Rates["NOT_AN_EVENT"] = 1 }), "", ReasonUnknownEv, true},
		{"no-rates", wireLine(t, r0, 1, func(w *wireSample) { w.Rates = map[string]float64{} }), "", ReasonMissingEv, true},
		{"negative-rate", wireLine(t, r0, 1, func(w *wireSample) {
			for k := range w.Rates {
				w.Rates[k] = -1
			}
		}), "", ReasonBadRate, true},
		{"negative-other-rate", wireLine(t, r0, 1, func(w *wireSample) { w.Rates["PAPI_L1_DCM"] = -1 }), "", ReasonBadRate, true},
		{"overflowing-rate", strings.Replace(sampleLine(t, r0, 1), `"voltage_v"`, `"x":1e999,"voltage_v"`, 1), "", ReasonParse, true},
		{"negative-power-label", wireLine(t, r0, 1, func(w *wireSample) { w.PowerW = &negPower }), "&refit=64", ReasonBadPower, true},
		// Past maxLineBytes, but the whole body stays within the
		// handler's early-exit budget (the line cap read, then a
		// deferred drain of maxLineBytes more), so the connection stays
		// reusable after the rejection.
		{"oversized-line", sampleLine(t, r0, 1) + strings.Repeat(" ", maxLineBytes), "", ReasonOversized, false},
	}
	for _, p := range probes {
		before := metric(t, s, rejectedFamily, "reason", p.reason)
		r, err := postEstimate(ts, "?model=m"+p.query, "", p.line+"\n")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if r.status != 400 || len(r.errs) != 1 || r.errs[0].Reason != p.reason {
			t.Fatalf("%s: HTTP %d %+v, want 400 with reason %q", p.name, r.status, r.errs, p.reason)
		}
		if got := metric(t, s, rejectedFamily, "reason", p.reason) - before; got != 1 {
			t.Fatalf("%s: %s counted %v times, want 1", p.name, p.reason, got)
		}
	}

	// All of them mid-stream on a refitting session, behind a stale
	// sample: one error record per bad line, the stale one first, and
	// only the two good lines estimated.
	lines := []string{sampleLine(t, r0, 1e9), sampleLine(t, r1, 5)}
	for _, p := range probes {
		if p.midStream {
			lines = append(lines, p.line)
		}
	}
	lines = append(lines, sampleLine(t, r1, 2e9))
	status, ests, errLines = streamEstimates(t, ts, "?model=m&session=flood&refit=64", lines)
	served += len(ests)
	if status != 200 || len(ests) != 2 || len(errLines) != len(lines)-2 {
		t.Fatalf("garbage stream: %d, %d estimates, %d errors; want 200, 2, %d", status, len(ests), len(errLines), len(lines)-2)
	}
	if errLines[0].Reason != ReasonOutOfOrder {
		t.Fatalf("stale sample rejected as %q, want %q", errLines[0].Reason, ReasonOutOfOrder)
	}

	// Twelve clients flood every shape twice over at once: each request
	// is refused in the 4xx band and none dies at the transport.
	const floodClients, floodRounds = 12, 2
	flood := make([][]request, floodClients)
	for c := range flood {
		for round := 0; round < floodRounds; round++ {
			for _, p := range probes {
				flood[c] = append(flood[c], request{"?model=m" + p.query, p.line + "\n"})
			}
		}
	}
	replies, err := postConcurrently(ts, flood)
	if err != nil {
		t.Fatalf("flood request died at the transport (crashed handler?): %v", err)
	}
	for c, rs := range replies {
		for i, r := range rs {
			if r.status < 400 || r.status >= 500 {
				t.Fatalf("flood client %d: %s got HTTP %d, want 4xx", c, probes[i%len(probes)].name, r.status)
			}
		}
	}

	// Counter dropout: every third sample of a named stream loses one of
	// the model's events, as a counter does that drops out between
	// reads. Each incomplete sample is a missing_event record; the
	// complete ones, and the session, keep flowing.
	before := metric(t, s, rejectedFamily, "reason", ReasonMissingEv)
	lines, dropped := lines[:0], 0
	for i := 0; i < 60; i++ {
		r, timeNs := rows[i%len(rows)], uint64(i+1)*1e6
		if i%3 != 2 {
			lines = append(lines, sampleLine(t, r, timeNs))
			continue
		}
		drop := pmu.Lookup(m.Events[i%len(m.Events)]).Name
		lines = append(lines, wireLine(t, r, timeNs, func(w *wireSample) { delete(w.Rates, drop) }))
		dropped++
	}
	status, ests, errLines = streamEstimates(t, ts, "?model=m&session=drop", lines)
	served += len(ests)
	if status != 200 || len(ests) != len(lines)-dropped || len(errLines) != dropped {
		t.Fatalf("dropout stream: %d, %d estimates, %d errors; want 200, %d, %d",
			status, len(ests), len(errLines), len(lines)-dropped, dropped)
	}
	for _, e := range errLines {
		if e.Reason != ReasonMissingEv {
			t.Fatalf("dropout rejected as %q, want %q", e.Reason, ReasonMissingEv)
		}
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonMissingEv) - before; got != float64(dropped) {
		t.Fatalf("missing_event counted %v times for %d dropouts", got, dropped)
	}
	lines = lines[:0]
	for i := 0; i < 5; i++ {
		lines = append(lines, sampleLine(t, rows[i%len(rows)], uint64(61+i)*1e6))
	}
	status, ests, _ = streamEstimates(t, ts, "?model=m&session=drop", lines)
	served += len(ests)
	if status != 200 || len(ests) != 5 {
		t.Fatalf("stream after the dropouts: %d, %d of 5 estimates", status, len(ests))
	}
	if got := ests[4].Samples; got != 60-uint64(dropped)+5 {
		t.Fatalf("session counts %d samples after the dropouts, want %d: it did not survive", got, 60-dropped+5)
	}

	if got := metric(t, s, "pmcpowerd_estimates_total"); got != float64(served) {
		t.Fatalf("pmcpowerd_estimates_total = %v, but clients received %d estimate rows", got, served)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after the flood = %d", code)
	}
}

// TestNonFiniteEstimateRejected: a sample that passes validation but
// whose estimate overflows (voltage_v 1e200 squares to +Inf) gets an
// error row with reason non_finite_estimate instead of vanishing, and
// leaves the named session unpoisoned: the stream's later row and a
// follow-up request match the oracle that never saw it. /v1/predict
// answers such a row with 400 and the same reason.
func TestNonFiniteEstimateRejected(t *testing.T) {
	m, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	hot := *rows[1]
	hot.VoltageV = 1e200

	status, ests, errLines := streamEstimates(t, ts, "?model=m&session=v", []string{
		sampleLine(t, rows[0], 1e6),
		sampleLine(t, &hot, 2e6),
		sampleLine(t, rows[2], 3e6),
	})
	if status != http.StatusOK || len(ests) != 2 || len(errLines) != 1 {
		t.Fatalf("stream: status %d, %d estimates, %d errors; want 200, 2, 1", status, len(ests), len(errLines))
	}
	if errLines[0].Reason != ReasonNonFinite {
		t.Fatalf("error row reason = %q, want %q", errLines[0].Reason, ReasonNonFinite)
	}
	status, follow, _ := streamEstimates(t, ts, "?model=m&session=v", []string{sampleLine(t, rows[3], 4e6)})
	if status != http.StatusOK || len(follow) != 1 {
		t.Fatalf("follow-up: status %d, %d estimates; want 200, 1", status, len(follow))
	}
	oracle := streamOracle{m: m, alpha: 1}
	oracle.push(rows[0], 1e6)
	oracle.push(rows[2], 3e6)
	inst, smoothed, joules := oracle.push(rows[3], 4e6)
	if got := follow[0]; got.Samples != 3 || got.InstantW != inst || got.SmoothedW != smoothed || got.TotalJ != joules {
		t.Fatalf("follow-up row = %+v, want samples 3, instant %v, smoothed %v, total %v", got, inst, smoothed, joules)
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonNonFinite); got != 1 {
		t.Fatalf("non_finite_estimate rejects = %v, want 1", got)
	}

	row := rowToWire(&hot)
	body, err := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{row}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || we.Reason != ReasonNonFinite {
		t.Fatalf("predict: status %d reason %q, want 400 %q", resp.StatusCode, we.Reason, ReasonNonFinite)
	}
}

// TestSessionEviction: idle sessions die after the TTL, busy ones
// never. With the table churned to its cap, a sweep past the TTL evicts
// every idle session and spares the one with an open stream, which
// goes at the first sweep after the stream ends; rounds of fresh
// sessions are swept clean, and the eviction counter accounts for each
// session. A re-used id then starts from fresh state.
func TestSessionEviction(t *testing.T) {
	_, rows := fixture(t)
	clock := newFakeClock()
	const maxSessions = 8
	s, ts := newTestServer(t, Config{MaxSessions: maxSessions, IdleTTL: time.Minute, Now: clock.Now})
	open := func(id string) estimateReply {
		t.Helper()
		r, err := postEstimate(ts, "?model=m&session="+id, "", "")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fill := func(prefix string) {
		t.Helper()
		for i := 0; i < maxSessions; i++ {
			if r := open(fmt.Sprintf("%s-%d", prefix, i)); r.status != 200 {
				t.Fatalf("session %s-%d refused: HTTP %d", prefix, i, r.status)
			}
		}
	}

	fill("churn")
	if n := s.sessions.count(); n != maxSessions {
		t.Fatalf("%d live sessions after the fill, want %d", n, maxSessions)
	}
	if r := open("overflow"); r.status != 429 || len(r.errs) != 1 || r.errs[0].Reason != ReasonSessionCap {
		t.Fatalf("session over the cap: HTTP %d %+v, want 429 %s", r.status, r.errs, ReasonSessionCap)
	}
	held := openHeldStream(t, http.DefaultClient, ts.URL+"/v1/estimate?model=m&session=churn-0", "", sampleLine(t, rows[0], 1e6))
	clock.Advance(2 * time.Minute)
	evicted, live := s.SweepIdleSessions(), s.sessions.count()
	held.close(t)
	if evicted != maxSessions-1 || live != 1 {
		t.Fatalf("sweep with churn-0 streaming evicted %d and left %d, want %d and 1", evicted, live, maxSessions-1)
	}
	clock.Advance(2 * time.Minute)
	if n := s.SweepIdleSessions(); n != 1 || s.sessions.count() != 0 {
		t.Fatalf("sweep after the stream ended evicted %d and left %d, want 1 and 0", n, s.sessions.count())
	}
	for round := 0; round < 4; round++ {
		fill(fmt.Sprintf("r%d", round))
		clock.Advance(2 * time.Minute)
		if n := s.SweepIdleSessions(); n != maxSessions {
			t.Fatalf("round %d sweep evicted %d, want %d", round, n, maxSessions)
		}
	}
	if n := s.sessions.count(); n != 0 {
		t.Fatalf("%d sessions left after the churn, want 0", n)
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonSessionCap); got != 1 {
		t.Fatalf("session_limit rejects = %v, want 1", got)
	}
	if got := metric(t, s, "pmcpowerd_sessions_evicted_total"); got != (maxSessions-1)+1+4*maxSessions {
		t.Fatalf("evictions = %v, want %d", got, (maxSessions-1)+1+4*maxSessions)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after the churn = %d", code)
	}

	status, ests, _ := streamEstimates(t, ts, "?model=m&session=ev", []string{sampleLine(t, rows[0], 5000)})
	if status != 200 || len(ests) != 1 {
		t.Fatalf("seed sample: %d", status)
	}
	if s.sessions.count() != 1 {
		t.Fatalf("active = %d, want 1", s.sessions.count())
	}

	// Under the TTL nothing is evicted.
	clock.Advance(30 * time.Second)
	if n := s.SweepIdleSessions(); n != 0 || s.sessions.count() != 1 {
		t.Fatalf("early sweep evicted %d", n)
	}
	// Past the TTL the session goes away.
	clock.Advance(45 * time.Second)
	if n := s.SweepIdleSessions(); n != 1 || s.sessions.count() != 0 {
		t.Fatalf("sweep evicted %d, active %d", n, s.sessions.count())
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
// returns 400. Each refusal names its reason.
func TestSessionBackpressure(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	line := sampleLine(t, rows[0], 0) + "\n"
	open := func(query string) estimateReply {
		t.Helper()
		r, err := postEstimate(ts, "?model=m&session="+query, "", line)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	refused := func(r estimateReply, status int, reason string) {
		t.Helper()
		if r.status != status || len(r.errs) != 1 || r.errs[0].Reason != reason {
			t.Fatalf("HTTP %d %+v, want %d %s", r.status, r.errs, status, reason)
		}
	}
	if r := open("s1"); r.status != 200 {
		t.Fatalf("s1 = %d", r.status)
	}
	if r := open("s2"); r.status != 200 {
		t.Fatalf("s2 = %d", r.status)
	}
	refused(open("s3"), 429, ReasonSessionCap)
	if got := metric(t, s, rejectedFamily, "reason", ReasonSessionCap); got != 1 {
		t.Fatalf("session_limit rejects = %v, want 1", got)
	}

	// Alpha mismatch on an existing session.
	refused(open("s1&alpha=0.25"), 400, ReasonParse)

	// A second concurrent stream on a busy session.
	held := openHeldStream(t, http.DefaultClient, ts.URL+"/v1/estimate?model=m&session=s1", "", sampleLine(t, rows[1], 1_000_000_000))
	refused(open("s1"), 409, ReasonSessionBusy)
	if got := metric(t, s, rejectedFamily, "reason", ReasonSessionBusy); got != 1 {
		t.Fatalf("session_busy rejects = %v, want 1", got)
	}
	held.close(t)
}

// TestAnonymousStreamAndLimits: sessionless streams work and leave no
// state behind; oversized lines are rejected with their own reason.
func TestAnonymousStreamAndLimits(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})

	// Pad a line past the cap: the raw line length is what the scanner
	// bounds, so trailing whitespace counts.
	oversized := sampleLine(t, rows[0], 0) + strings.Repeat(" ", maxLineBytes)
	status, ests, _ := streamEstimates(t, ts, "?model=m", []string{oversized})
	if status != 400 {
		t.Fatalf("oversized line = %d (%d estimates), want 400", status, len(ests))
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonOversized); got != 1 {
		t.Fatalf("oversized rejects = %v, want 1", got)
	}

	// A compact synthetic sample streams fine without a session.
	small := &acquisition.Row{FreqMHz: 2400, VoltageV: 1.0,
		Rates: map[pmu.EventID]float64{}}
	for _, id := range testEvents() {
		small.Rates[id] = 1e8
	}
	line := sampleLine(t, small, 0)
	status, ests, errLines := streamEstimates(t, ts, "?model=m", []string{line})
	if status != 200 || len(ests) != 1 || len(errLines) != 0 {
		t.Fatalf("anonymous stream: %d, %d estimates, %v", status, len(ests), errLines)
	}
	if got := s.sessions.count(); got != 0 {
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
// server never logs a panic (newTestServer fails the test on one).
func TestEarlyRejectionClosesConnection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	small := &acquisition.Row{FreqMHz: 2400, VoltageV: 1.0, Rates: map[pmu.EventID]float64{}}
	for _, id := range testEvents() {
		small.Rates[id] = 1e8
	}
	valid := sampleLine(t, small, 0) + "\n"
	// Long enough that bytes remain after the handler's bounded drain
	// (the line cap, up to one 64 KiB read buffer past it, then
	// maxLineBytes more), short enough that net/http's post-handler
	// close reads to EOF.
	oversized := strings.Repeat(" ", 2*maxLineBytes+128<<10) + valid
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
}

// TestShutdownWithFreeStreams serves estimate streams over keep-alive
// connections, so that finished streams sit on the server's free list,
// and then shuts the HTTP server down while one more stream is still
// open. Shutdown must wait for that stream and return nil within its
// 2 s deadline: a free stream that still held a request's body or
// ResponseWriter could keep a connection from going idle.
func TestShutdownWithFreeStreams(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	const clients, requests, lines = 4, 10, 20
	bodies := make([][]string, clients)
	for c := range bodies {
		var timeNs uint64
		for k := 0; k < requests; k++ {
			var body strings.Builder
			for j := 0; j < lines; j++ {
				timeNs += 1e6
				body.WriteString(sampleLine(t, rows[j%len(rows)], timeNs))
				body.WriteByte('\n')
			}
			bodies[c] = append(bodies[c], body.String())
		}
	}
	post := func(c int, body string) error {
		resp, err := client.Post(fmt.Sprintf("%s/v1/estimate?model=m&session=c%d", ts.URL, c),
			"application/x-ndjson", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || bytes.Count(got, []byte("\n")) != lines {
			return fmt.Errorf("client %d: status %d, body %q", c, resp.StatusCode, got)
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := range bodies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, body := range bodies[c] {
				if err := post(c, body); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.freeMu.Lock()
	free := len(s.freeStreams)
	for _, st := range s.freeStreams {
		if st.w != nil || st.stream != nil || st.at != nil || st.ref.Model != nil || st.traceID != "" {
			t.Errorf("a free stream still holds request state: %+v", st)
		}
	}
	s.freeMu.Unlock()
	if free == 0 {
		t.Fatal("no finished stream went back to the free list")
	}

	// One stream stays open across the start of Shutdown.
	held := openHeldStream(t, client, ts.URL+"/v1/estimate?model=m&session=open", "", sampleLine(t, rows[0], 1e6))
	started := make(chan struct{})
	ts.Config.RegisterOnShutdown(func() { close(started) })
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		shutdown <- ts.Config.Shutdown(ctx)
	}()
	<-started
	held.send(t, sampleLine(t, rows[1], 2e6))
	if rest := held.close(t); bytes.Count(rest, []byte("\n")) != 1 {
		t.Fatalf("rest of the open stream: %q", rest)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown with %d free streams: %v", free, err)
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
