package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
)

// --- registry hot swap under live traffic ----------------------------

// TestRegistryHotSwapUnderLiveTraffic races model uploads against live
// NDJSON streams and concurrent registry reads. Run under -race it
// pins the copy-on-write contract: a deploy is atomic (readers see the
// old or the new snapshot, never a torn one), in-flight streams keep
// estimating, and every listing is internally consistent.
func TestRegistryHotSwapUnderLiveTraffic(t *testing.T) {
	m, rows := fixture(t)
	_, ts := newTestServer(t, Config{})

	var doc bytes.Buffer
	if err := m.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	docBytes := doc.Bytes()

	const (
		streamers = 4
		samples   = 40
		uploads   = 20
	)
	clients := make([][]request, streamers)
	for c := range clients {
		lines := make([]string, samples)
		for i := range lines {
			lines[i] = sampleLine(t, rows[(c+i)%len(rows)], uint64(i+1)*1e6)
		}
		clients[c] = []request{{fmt.Sprintf("?model=m&session=swap-%d", c), ndjson(lines)}}
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup

	// Uploader: redeploy "m" continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < uploads; i++ {
			resp, err := http.Post(ts.URL+"/v1/models?name=m", "application/json", bytes.NewReader(docBytes))
			if err != nil {
				errs <- fmt.Errorf("upload %d: %w", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("upload %d: HTTP %d", i, resp.StatusCode)
				return
			}
		}
		errs <- nil
	}()

	// Reader: every listing must be internally consistent — exactly one
	// latest version per name, versions contiguous from 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			resp, err := http.Get(ts.URL + "/v1/models")
			if err != nil {
				errs <- fmt.Errorf("list %d: %w", i, err)
				return
			}
			var infos []ModelInfo
			err = json.NewDecoder(resp.Body).Decode(&infos)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("list %d: %w", i, err)
				return
			}
			latest := 0
			for j, info := range infos {
				if info.Version != j+1 {
					errs <- fmt.Errorf("list %d: torn listing: version %d at index %d", i, info.Version, j)
					return
				}
				if info.Latest {
					latest++
				}
			}
			if len(infos) > 0 && latest != 1 {
				errs <- fmt.Errorf("list %d: %d latest versions, want 1", i, latest)
				return
			}
		}
		errs <- nil
	}()

	// Streamers: every sample must come back as an estimate — a deploy
	// must never break a stream that resolved before it.
	replies, err := postConcurrently(ts, clients)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for c, rs := range replies {
		if r := rs[0]; r.status != http.StatusOK || len(r.errs) != 0 || len(r.ests) != samples {
			t.Errorf("swap-%d: HTTP %d, %d estimates, %d errors; want 200, %d, 0",
				c, r.status, len(r.ests), len(r.errs), samples)
		}
	}
}

// --- shard equivalence ------------------------------------------------

// normalizeStatus zeroes the fields of a /v1/status document that
// legitimately depend on the shard layout or wall-clock timing.
func normalizeStatus(t *testing.T, raw []byte) StatusResponse {
	t.Helper()
	var st StatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad status %q: %v", raw, err)
	}
	st.Sessions.Shards = 0
	st.Sessions.PerShard = nil
	st.Admission.P99EwmaMS = 0
	st.UptimeS = 0
	return st
}

// normalizeMetrics drops exposition lines whose values are wall-clock
// timings (latency histogram buckets and sums); the deterministic
// sample counts (_seconds_count) and every non-timing family must be
// byte-identical across serving modes.
func normalizeMetrics(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.Contains(name, "seconds") && !strings.HasSuffix(name, "_count") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// shardSpecs is the transcript of testdata/shard_equivalence.golden:
// streaming sessions with labelled refit samples and mid-stream
// rejections, batch prediction, the model listing and deep health.
func shardSpecs(t *testing.T) []equivSpec {
	_, rows := fixture(t)
	stream := func(session string, lines ...string) equivSpec {
		q := "?model=m&refit=32"
		if session != "" {
			q += "&session=" + session
		}
		return equivSpec{method: "POST", path: "/v1/estimate" + q, body: strings.Join(lines, "\n") + "\n"}
	}
	predictBody, err := json.Marshal(predictRequest{Model: "m", Rows: []wireRow{
		rowToWire(rows[0]), rowToWire(rows[1]), rowToWire(rows[2]),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return []equivSpec{
		stream("a", sampleLine(t, rows[0], 1e6), labelledLine(t, rows[1], 2e6, rows[1].PowerW), sampleLine(t, rows[2], 3e6)),
		stream("b", labelledLine(t, rows[3], 1e6, rows[3].PowerW), labelledLine(t, rows[4], 2e6, rows[4].PowerW)),
		// Anonymous stream with a mid-stream rejection (unknown event).
		stream("", sampleLine(t, rows[5], 1e6), `{"time_ns":2000000,"freq_mhz":2000,"voltage_v":1.1,"rates":{"NO_SUCH_EV":1}}`, sampleLine(t, rows[6], 3e6)),
		// Out-of-order rejection on a named session's second request.
		stream("a", sampleLine(t, rows[7], 4e6), sampleLine(t, rows[8], 2e6)),
		{method: "POST", path: "/v1/predict", body: string(predictBody)},
		{method: "GET", path: "/v1/models"},
		{method: "GET", path: "/healthz?deep=1"},
	}
}

// TestShardEquivalence drives an identical transcript through a
// single-shard and a multi-shard server and requires bit-identical
// responses, /v1/status and /metrics included: shard layout is an
// implementation detail, and the service contract must not move. The
// responses must also match the committed golden transcript.
func TestShardEquivalence(t *testing.T) {
	specs := shardSpecs(t)
	shards1 := equivServer(t, Config{Shards: 1})
	shards8 := equivServer(t, Config{Shards: 8})
	base := recordTranscript(t, shards1, specs)
	got := recordTranscript(t, shards8, specs)
	for i, spec := range specs {
		if got[i].status != base[i].status || got[i].contentType != base[i].contentType || !bytes.Equal(got[i].body, base[i].body) {
			t.Errorf("spec %d (%s %s): shards8 diverges from shards1:\n shards1: %d %s %q\n shards8: %d %s %q",
				i, spec.method, spec.path, base[i].status, base[i].contentType, base[i].body,
				got[i].status, got[i].contentType, got[i].body)
		}
	}

	// /v1/status must agree after stripping the shard-layout block.
	statusTrace := "00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01"
	status := equivSpec{method: "GET", path: "/v1/status"}
	st1 := normalizeStatus(t, send(t, shards1, status, statusTrace).body)
	if st8 := normalizeStatus(t, send(t, shards8, status, statusTrace).body); !reflect.DeepEqual(st8, st1) {
		t.Errorf("status diverges:\n shards1: %+v\n shards8: %+v", st1, st8)
	}

	// /metrics must agree after dropping wall-clock-valued lines.
	metricsTrace := "00-" + strings.Repeat("c", 32) + "-" + strings.Repeat("d", 16) + "-01"
	metrics := equivSpec{method: "GET", path: "/metrics"}
	m1 := normalizeMetrics(string(send(t, shards1, metrics, metricsTrace).body))
	if m8 := normalizeMetrics(string(send(t, shards8, metrics, metricsTrace).body)); m8 != m1 {
		t.Errorf("metrics diverge:\n--- shards1 ---\n%s\n--- shards8 ---\n%s", m1, m8)
	}

	checkGolden(t, "testdata/shard_equivalence.golden", renderTranscript(specs, got))
}

func rowToWire(r *acquisition.Row) wireRow {
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	return wireRow{FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates}
}

// --- sweep eviction outside the critical section ----------------------

// TestSweepEvictsOutsideShardLock pins the collect-then-close sweep
// contract: per-session teardown (the evictHook seam) runs with the
// shard lock released, so a slow teardown cannot stall acquire/release
// traffic on the same shard.
func TestSweepEvictsOutsideShardLock(t *testing.T) {
	model, _ := fixture(t)
	clock := newFakeClock()
	const ttl = 10 * time.Millisecond
	// One shard: the evicted key and the live key share it by
	// construction, which is the worst case the contract covers.
	sm := newSessionManager(1, 64, ttl, clock.Now, NewMetrics(nil, 1))

	hookEntered := make(chan struct{})
	hookRelease := make(chan struct{})
	sm.evictHook = func(sessionKey, *session) {
		close(hookEntered)
		<-hookRelease
	}

	idle := sessionKey{model: "m", id: "idle"}
	if _, herr := sm.acquire(idle, model, 0.5, 0); herr != nil {
		t.Fatal(herr.err)
	}
	sm.release(idle)
	clock.Advance(2 * ttl)

	sweepDone := make(chan int)
	go func() { sweepDone <- sm.sweep(clock.Now()) }()
	<-hookEntered // the sweep is now parked in teardown

	// With the hook blocked, same-shard traffic must still flow.
	acquired := make(chan struct{})
	go func() {
		live := sessionKey{model: "m", id: "live"}
		if _, herr := sm.acquire(live, model, 0.5, 0); herr != nil {
			t.Errorf("acquire during blocked teardown: %v", herr.err)
		} else {
			sm.release(live)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire blocked behind an in-progress eviction teardown")
	}

	close(hookRelease)
	if n := <-sweepDone; n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
}

// --- allocation gate --------------------------------------------------

// TestEstimateSampleZeroAllocs gates the serving core's steady state:
// once a session exists, pushing a sample through the full serving
// path (admission, registry resolution, session bookkeeping, metrics)
// must not allocate.
func TestEstimateSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	_, rows := fixture(t)
	s := New(Config{Registry: func() *Registry {
		m, _ := fixture(t)
		r := NewRegistry()
		r.Add("m", m)
		return r
	}()})
	defer s.Close()

	cs := counterSample(rows[0], 0)
	var timeNs uint64
	push := func() {
		timeNs += 1e6
		cs.TimeNs = timeNs
		if _, err := s.EstimateSample("m", "gate", cs); err != nil {
			t.Fatal(err)
		}
	}
	push() // create the session outside the measured window
	if allocs := testing.AllocsPerRun(1000, push); allocs != 0 {
		t.Fatalf("EstimateSample steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// discardWriter is a flushable ResponseWriter that counts the rows it
// is sent and keeps no bytes, so an allocation count taken around
// ServeHTTP is the server's alone.
type discardWriter struct {
	header       http.Header
	status       int
	rows, errors int
}

var (
	newline  = []byte("\n")
	errorKey = []byte(`"error"`)
)

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.rows += bytes.Count(b, newline)
	d.errors += bytes.Count(b, errorKey)
	return len(b), nil
}
func (d *discardWriter) Flush() {}

// TestEstimateHandlerAllocs gates the real handler's per-sample
// allocations: driving Handler().ServeHTTP in process, as the bench
// ladder's serve.handler rung does, a warmed named session's body of
// 8n lines must allocate at most one object more than a body of n
// lines, labelled refit streams included. One allocation per sample
// would show as 7n more. It also gates the heap bytes per request at
// maxRequestBytes for both body lengths: the stream's 64 KiB reader
// and 32 KiB writer come from the server's free list, not from a new
// allocation per request.
func TestEstimateHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	_, rows := fixture(t)
	s := New(Config{Registry: func() *Registry {
		m, _ := fixture(t)
		r := NewRegistry()
		r.Add("m", m)
		return r
	}()})
	defer s.Close()
	h := s.Handler()

	const n, runs = 50, 10
	const maxRequestBytes = 8 << 10
	for _, tc := range []struct {
		name, query string
		line        func(*testing.T, *acquisition.Row, uint64) string
	}{
		{"unlabelled", "?model=m&session=plain", func(t *testing.T, r *acquisition.Row, timeNs uint64) string {
			// As a sampler sends it: sampleLine's "power_w":null is
			// valid but left to the encoding/json route.
			return strings.Replace(sampleLine(t, r, timeNs), `,"power_w":null`, "", 1)
		}},
		{"labelled", "?model=m&session=refit&refit=64", func(t *testing.T, r *acquisition.Row, timeNs uint64) string {
			return labelledLine(t, r, timeNs, r.PowerW)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var timeNs uint64
			// requests builds k requests of lines samples each, continuing
			// the session's timeline.
			requests := func(k, lines int) ([]*http.Request, []*discardWriter) {
				reqs := make([]*http.Request, k)
				ws := make([]*discardWriter, k)
				for i := range reqs {
					var body strings.Builder
					for j := 0; j < lines; j++ {
						timeNs += 1e6
						body.WriteString(tc.line(t, rows[int(timeNs/1e6)%len(rows)], timeNs))
						body.WriteByte('\n')
					}
					req, err := http.NewRequest(http.MethodPost, "/v1/estimate"+tc.query, strings.NewReader(body.String()))
					if err != nil {
						t.Fatal(err)
					}
					reqs[i], ws[i] = req, &discardWriter{header: http.Header{}}
				}
				return reqs, ws
			}
			// measure returns the objects and heap bytes one request of
			// lines samples allocates.
			measure := func(lines int) (allocs, bytes float64) {
				reqs, ws := requests(runs+1, lines) // AllocsPerRun adds one warm-up call
				k := 0
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allocs = testing.AllocsPerRun(runs, func() {
					h.ServeHTTP(ws[k], reqs[k])
					k++
				})
				runtime.ReadMemStats(&after)
				for i, w := range ws {
					if w.status != http.StatusOK || w.rows != lines || w.errors != 0 {
						t.Fatalf("request %d of %d lines: status %d, %d rows, %d errors", i, lines, w.status, w.rows, w.errors)
					}
				}
				return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
			}
			measure(n) // open the session and its quality state outside the gate
			small, smallBytes := measure(n)
			large, largeBytes := measure(8 * n)
			t.Logf("per request: %.0f allocs and %.0f B for %d lines, %.0f allocs and %.0f B for %d lines",
				small, smallBytes, n, large, largeBytes, 8*n)
			if large > small+1 {
				t.Fatalf("a body of %d lines allocates %.0f objects, of %d lines %.0f: %.2f allocs per extra sample, want 0",
					8*n, large, n, small, (large-small)/(7*n))
			}
			if smallBytes > maxRequestBytes || largeBytes > maxRequestBytes {
				t.Fatalf("a request allocates %.0f B for %d lines and %.0f B for %d lines, want at most %d",
					smallBytes, n, largeBytes, 8*n, maxRequestBytes)
			}
		})
	}
}

// --- body caps --------------------------------------------------------

func TestPredictBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	body := `{"model":"m","rows":[` + strings.Repeat(`{"freq_mhz":2000,"voltage_v":1.1,"rates":{}},`, 64)
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict body: HTTP %d %q, want 413", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), ReasonOversized) {
		t.Fatalf("413 body %q does not carry reason %q", raw, ReasonOversized)
	}
}

func TestModelUploadBodyCap(t *testing.T) {
	m, _ := fixture(t)
	s, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	// A well-formed model document larger than the cap: the 413 must
	// come from the byte limit, not from a parse failure.
	var doc bytes.Buffer
	if err := m.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Len() <= 128 {
		t.Fatalf("fixture document is %d bytes; cap test needs > 128", doc.Len())
	}
	resp, err := http.Post(ts.URL+"/v1/models?name=big", "application/json", &doc)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized model upload: HTTP %d %q, want 413", resp.StatusCode, raw)
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonOversized); got == 0 {
		t.Fatal("oversized upload not counted under the oversized reason")
	}
}

// TestModelUploadRejectsDuplicateEvents: a model document naming one
// event twice is refused at upload with 400 and reason parse, and
// nothing is registered under the name.
func TestModelUploadRejectsDuplicateEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doc := `{"version":1,"events":["PAPI_TOT_CYC","PAPI_TOT_CYC"],"alpha":[1,2],"beta":0,"gamma":0,"delta":0}`
	resp, err := http.Post(ts.URL+"/v1/models?name=dup", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || we.Reason != ReasonParse || !strings.Contains(we.Error, "PAPI_TOT_CYC") {
		t.Fatalf("duplicate-event upload: status %d %+v, want 400 %q naming PAPI_TOT_CYC", resp.StatusCode, we, ReasonParse)
	}
	if _, err := s.reg.Get("dup"); err == nil {
		t.Fatal("rejected document was registered")
	}
}

// --- admission control ------------------------------------------------

// TestAdmissionInFlightCap fills every admission slot with a held
// estimate stream and requires the next gated requests, predict and
// estimate, to shed with 429, reason shed_inflight and Retry-After,
// counted on both metric surfaces; once the streams end, the same
// requests are admitted again.
func TestAdmissionInFlightCap(t *testing.T) {
	_, rows := fixture(t)
	const inflightCap = 2
	s, ts := newTestServer(t, Config{MaxInFlight: inflightCap, RetryAfter: 2 * time.Second})
	predict := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"model":"m","rows":[{"freq_mhz":2000,"voltage_v":1.1,"rates":{}}]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	estimate := func(timeNs uint64) estimateReply {
		t.Helper()
		r, err := postEstimate(ts, "?model=m&session=overflow", "", sampleLine(t, rows[inflightCap], timeNs)+"\n")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	var held []*heldStream
	for i := 0; i < inflightCap; i++ {
		held = append(held, openHeldStream(t, http.DefaultClient,
			fmt.Sprintf("%s/v1/estimate?model=m&session=hold-%d", ts.URL, i), "", sampleLine(t, rows[i], 1e6)))
	}
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK || status.Admission.InFlight != inflightCap {
		t.Fatalf("/v1/status = %d with in_flight %d while saturated, want 200 and %d", code, status.Admission.InFlight, inflightCap)
	}
	if resp := predict(); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("over-cap predict: HTTP %d, Retry-After %q; want 429, 2", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if r := estimate(1e6); r.status != http.StatusTooManyRequests || r.retryAfter != "2" ||
		len(r.errs) != 1 || r.errs[0].Reason != ReasonShedInflight {
		t.Fatalf("over-cap stream: HTTP %d, Retry-After %q, %+v; want 429, 2, %s", r.status, r.retryAfter, r.errs, ReasonShedInflight)
	}
	for _, path := range []string{"/v1/predict", "/v1/estimate"} {
		if got := metric(t, s, "pmcpowerd_shed_total", "path", path, "reason", ReasonShedInflight); got != 1 {
			t.Fatalf("shed counter for %s = %v, want 1", path, got)
		}
	}
	if got := metric(t, s, rejectedFamily, "reason", ReasonShedInflight); got != 2 {
		t.Fatalf("shed_inflight rejects = %v, want 2", got)
	}

	for _, h := range held {
		h.close(t)
	}
	waitFor(t, func() bool { return s.gate.inFlight() == 0 })
	// Capacity restored: the same requests are admitted now.
	if resp := predict(); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("predict shed after capacity was restored")
	}
	if r := estimate(2e6); r.status != http.StatusOK || len(r.ests) != 1 {
		t.Fatalf("stream after the drain: HTTP %d with %d estimates, want 200 with 1", r.status, len(r.ests))
	}
}

// TestAdmissionP99Shed drives the latency EWMA over an absurdly low
// threshold and requires 503 + Retry-After as soon as it is primed,
// whether the gate samples every completion or every second one, with
// the shedding gauge, the shed counter, a failing deep health probe,
// and the status block agreeing.
func TestAdmissionP99Shed(t *testing.T) {
	_, rows := fixture(t)
	for _, every := range []int{1, 2} {
		t.Run(fmt.Sprintf("sample-every-%d", every), func(t *testing.T) {
			s, ts := newTestServer(t, Config{ShedP99: time.Nanosecond, ShedSampleEvery: every, RetryAfter: time.Second})

			// Prime the EWMA: the gate folds in a p99 every `every`
			// completions, and any request's p99 exceeds 1ns.
			for i := 0; i < every; i++ {
				q := fmt.Sprintf("?model=m&session=prime-%d", i)
				if code, _, _ := streamEstimates(t, ts, q, []string{sampleLine(t, rows[i], 1e6)}); code != http.StatusOK {
					t.Fatalf("priming request %d: HTTP %d", i, code)
				}
			}
			waitFor(t, s.gate.sheddingNow)

			r, err := postEstimate(ts, "?model=m", "", sampleLine(t, rows[every], 1e6)+"\n")
			if err != nil {
				t.Fatal(err)
			}
			if r.status != http.StatusServiceUnavailable || r.retryAfter != "1" || len(r.errs) != 1 || r.errs[0].Reason != ReasonShedP99 {
				t.Fatalf("request under shed: HTTP %d, Retry-After %q, %+v; want 503, 1, %s", r.status, r.retryAfter, r.errs, ReasonShedP99)
			}
			var status StatusResponse
			if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK ||
				!status.Admission.Enabled || !status.Admission.Shedding || status.Admission.ShedTotal == 0 {
				t.Fatalf("/v1/status = %d with admission block %+v, want active shedding", code, status.Admission)
			}
			if got := metric(t, s, "pmcpowerd_shed_total", "path", "/v1/estimate", "reason", ReasonShedP99); got != 1 {
				t.Fatalf("shed counter = %v, want 1", got)
			}
			if got := metric(t, s, "pmcpowerd_shedding"); got != 1 {
				t.Fatalf("pmcpowerd_shedding = %v, want 1", got)
			}
			if code := getJSON(t, ts.URL+"/healthz?deep=1", nil); code != http.StatusServiceUnavailable {
				t.Fatalf("deep health under shed: HTTP %d, want 503", code)
			}
		})
	}
}

// TestAdmissionDisabled pins the escape hatch: with both knobs at zero
// the overload shape that sheds elsewhere — held streams plus a burst —
// is admitted in full, without a Retry-After, a rejection or a shed,
// and the status block reports the gate as disabled.
func TestAdmissionDisabled(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	var held []*heldStream
	for i := 0; i < 2; i++ {
		held = append(held, openHeldStream(t, http.DefaultClient,
			fmt.Sprintf("%s/v1/estimate?model=m&session=hold-%d", ts.URL, i), "", sampleLine(t, rows[i], 1e6)))
	}
	for i := 0; i < 8; i++ {
		lines := make([]string, 0, 16)
		for j := 0; j < 16; j++ {
			lines = append(lines, sampleLine(t, rows[(i*16+j)%len(rows)], uint64(j+1)*1e6))
		}
		r, err := postEstimate(ts, fmt.Sprintf("?model=m&session=open-%d", i), "", ndjson(lines))
		if err != nil {
			t.Fatal(err)
		}
		if r.status != http.StatusOK || len(r.ests) != len(lines) || r.retryAfter != "" {
			t.Fatalf("stream %d: HTTP %d with %d estimates, Retry-After %q; want 200 with %d, none",
				i, r.status, len(r.ests), r.retryAfter, len(lines))
		}
	}
	for _, h := range held {
		h.close(t)
	}
	if n := metric(t, s, rejectedFamily); n != 0 {
		t.Fatalf("%v samples rejected with the gate disabled", n)
	}
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK ||
		status.Admission.Enabled || status.Admission.Shedding || status.Admission.ShedTotal != 0 {
		t.Fatalf("/v1/status = %d with admission block %+v, want disabled and idle", code, status.Admission)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
}

// waitFor polls cond with a deadline — for settling asynchronous gate
// state that lags the HTTP response by one middleware epilogue.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
