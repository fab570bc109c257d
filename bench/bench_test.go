package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
)

func TestMain(m *testing.M) {
	// The pipeline's cold set-up re-executes the running binary, which
	// under `go test` is the test binary.
	if arg, ok := os.LookupEnv(coldEnv); ok {
		os.Exit(runColdChild(arg))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads builds pmcpowerd and runs every workload,
// untraced and traced, at a scaled-down size: every correctness check
// must pass and both reports must validate.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildDaemon(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := calibrate()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	// The untraced and the traced run go side by side: it halves the
	// wall time, and the shared calibration is exercised concurrently.
	for _, traced := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			t.Parallel()
			cfg := &config{
				root: root, work: t.TempDir(), seed: 7, seconds: 0.2, scale: 0.01, daemonBin: bin, cal: cal,
			}
			if traced {
				cfg.tracer = obs.NewTracer()
			}
			rep, err := runWorkloads(cfg, names, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rep.Workloads {
				if !res.Correct {
					t.Errorf("%s: failed checks: %v", res.Name, res.Failures)
				}
			}
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeReport(raw, spec); err != nil {
				t.Errorf("report does not validate: %v", err)
			}
			if line, ok := driverLine(rep, spec); !ok {
				t.Errorf("driver line not correct: %s", line)
			}
			if traced {
				seen := map[string]bool{}
				for _, s := range cfg.tracer.Spans() {
					seen[s.Name] = true
				}
				for _, name := range append([]string{"core.push", "core.push_labeled", "quality.observe",
					"serve.engine", "serve.handler", "http"}, pipelineCalls...) {
					if !seen[name] {
						t.Errorf("traced run recorded no %q span", name)
					}
				}
			}
		})
	}
}

// fakeCalibration is a one-row sample pool over one event, enough to
// drive the generator without running the campaign.
func fakeCalibration() *calibration {
	id := pmu.MustByName("TOT_CYC").ID
	return &calibration{
		events: []pmu.EventID{id},
		names:  []string{pmu.Lookup(id).Name},
		pool: []*acquisition.Row{
			{FreqMHz: 2400, VoltageV: 1.05, PowerW: 120, Rates: map[pmu.EventID]float64{id: 4.8e9}},
			{FreqMHz: 1200, VoltageV: 0.85, PowerW: 80, Rates: map[pmu.EventID]float64{id: 2.4e9}},
		},
	}
}

// echoServer answers every estimate line with a row echoing its
// time_ns, records each session's time_ns sequence, and stalls once
// for stall before answering request number stallAt (1-based; 0 never).
type echoServer struct {
	stall   time.Duration
	stallAt int64
	n       atomic.Int64
	mu      sync.Mutex
	seen    map[string][]uint64
}

func (e *echoServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e.n.Add(1) == e.stallAt {
		time.Sleep(e.stall)
	}
	session := r.URL.Query().Get("session")
	w.Header().Set("Traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	sc := bufio.NewScanner(r.Body)
	var out bytes.Buffer
	for sc.Scan() {
		var row struct {
			TimeNs uint64 `json:"time_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e.mu.Lock()
		e.seen[session] = append(e.seen[session], row.TimeNs)
		e.mu.Unlock()
		out.WriteString(`{"time_ns":` + strconv.FormatUint(row.TimeNs, 10) + `,"instant_w":1}` + "\n")
	}
	w.Write(out.Bytes())
}

// TestOpenLoopChargesStallFromDueTime is the coordinated-omission
// guard: the server stalls once for 200 ms, and every request that
// fell due during the stall must be timed from its due time, with the
// lateness and backlog recording the stall.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := &echoServer{stall: stall, stallAt: 40, seen: map[string][]uint64{}}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cal := fakeCalibration()
	sessions := []*session{newSession(1, "test", 0, 8, false, cal), newSession(1, "test", 1, 8, false, cal)}
	conns := newConns(1, ts.URL, "", sessions, 1, nil)
	defer conns[0].close()

	// 200 requests, one every 5 ms: request 40 is due at 195 ms.
	var sched []time.Duration
	for i := 0; i < 200; i++ {
		sched = append(sched, time.Duration(i)*5*time.Millisecond)
	}
	start := time.Now().Add(5 * time.Millisecond)
	reqs, backlogMax, err := runOpen(conns, [][]time.Duration{sched}, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(sched) || conns[0].failed != 0 {
		t.Fatalf("%d requests measured, %d failed: %v", len(reqs), conns[0].failed, conns[0].errs)
	}
	// The stalled request was due at 195 ms and answered no earlier
	// than 395 ms; request 50, due at 245 ms, waited behind it, so its
	// latency from its due time is at least 150 ms even though its own
	// service took microseconds.
	if got := reqs[49].latency; got < 0.150 {
		t.Errorf("request due during the stall has latency %.1f ms, want >= 150 ms from its due time", got*1e3)
	}
	if got := reqs[39].latency; got < stall.Seconds() {
		t.Errorf("stalled request latency %.1f ms, want >= %v", got*1e3, stall)
	}
	// Request 50 waited for the stalled response, not for the
	// generator: its own delay stays small.
	if got := reqs[49].stalled; got > 0.05 {
		t.Errorf("request queued behind the stall charged %.1f ms to the generator", got*1e3)
	}
	var late []float64
	for _, r := range reqs {
		late = append(late, r.late)
	}
	sort.Float64s(late)
	if p99 := quantile(late, 0.99); p99 < 0.1 {
		t.Errorf("late p99 = %.1f ms, want the stall recorded (>= 100 ms)", p99*1e3)
	}
	if backlogMax < 20 {
		t.Errorf("backlog max = %d, want >= 20 requests queued behind the stall", backlogMax)
	}
}

// TestTrafficIsPureFunctionOfSeed: the same (seed, workload, session)
// renders byte-identical bodies, another seed different ones, and a
// session's time_ns rises strictly across warmup, closed and open
// phases.
func TestTrafficIsPureFunctionOfSeed(t *testing.T) {
	cal := fakeCalibration()
	body := func(seed uint64, workload string, id int) []byte {
		return newSession(seed, workload, id, 8, true, cal).appendBody(nil, 0, 20)
	}
	if !bytes.Equal(body(5, "stream-refit", 3), body(5, "stream-refit", 3)) {
		t.Error("same seed, workload and session rendered different bodies")
	}
	if bytes.Equal(body(5, "stream-refit", 3), body(6, "stream-refit", 3)) {
		t.Error("different seeds rendered identical bodies")
	}
	if bytes.Equal(body(5, "stream-refit", 3), body(5, "stream-refit", 4)) {
		t.Error("different sessions rendered identical bodies")
	}
	w, _ := streamByName("stream-refit")
	if a, b := w.openSchedule(5, 0, time.Second), w.openSchedule(5, 0, time.Second); !equalSchedules(a, b) {
		t.Error("same seed gave different open-loop schedules")
	}
	if a, b := w.openSchedule(5, 0, time.Second), w.openSchedule(6, 0, time.Second); equalSchedules(a, b) {
		t.Error("different seeds gave identical open-loop schedules")
	}
	if a, b := w.openSchedule(5, 0, time.Second), w.openSchedule(5, 1, time.Second); equalSchedules(a, b) {
		t.Error("two open blocks of one run got identical schedules")
	}

	srv := &echoServer{seen: map[string][]uint64{}}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var sessions []*session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, newSession(5, "test", i, 8, false, cal))
	}
	conns := newConns(connections, ts.URL, "", sessions, 3, nil)
	runClosed(conns, 4) // warmup
	runClosed(conns, 6) // closed loop
	sched := [][]time.Duration{{0, time.Millisecond, 2 * time.Millisecond}, {0, time.Millisecond}}
	if _, _, err := runOpen(conns, sched, time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.close()
		if c.failed != 0 {
			t.Fatalf("requests failed: %v", c.errs)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, s := range sessions {
		times := srv.seen[s.name]
		if len(times) != s.next {
			t.Fatalf("%s: server saw %d samples, session sent %d", s.name, len(times), s.next)
		}
		for i := 1; i < len(times); i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("%s: time_ns %d after %d", s.name, times[i], times[i-1])
			}
		}
	}
}

func equalSchedules(a, b [][]time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// validReport is a report every rule accepts: all BENCHMARK.json
// workloads with every end-to-end metric.
func validReport(t *testing.T, spec *benchSpec) map[string]any {
	t.Helper()
	rep := &report{
		Schema: reportSchema, Generated: "2026-01-01T00:00:00Z", Seed: 1, Seconds: 15,
		Machine: machine{GOOS: "linux", GOARCH: "amd64", NProc: 2, GOMAXPROCS: 2, CPUModel: "test cpu", GoVersion: "go1.24"},
	}
	for _, w := range spec.Workloads {
		res := newResult(w.Name)
		res.Attempted = 10
		for i, m := range spec.EndToEnd {
			res.set(m.Name, float64(i+1))
		}
		res.set("latency_p50_ms", 1)
		res.set("latency_p99_ms", 2)
		res.finish(false)
		rep.Workloads = append(rep.Workloads, res)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestValidateRejectsEachRule(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	metric := func(doc map[string]any, name string) map[string]any {
		ws := doc["workloads"].([]any)
		return ws[0].(map[string]any)["metrics"].(map[string]any)[name].(map[string]any)
	}
	cases := []struct {
		name   string
		mutate func(doc map[string]any)
		text   func(raw string) string // applied after marshalling
	}{
		{name: "valid"},
		{name: "unknown field", mutate: func(d map[string]any) { d["extra"] = 1 }},
		{name: "wrong schema", mutate: func(d map[string]any) { d["schema"] = "pmcpower/loadgen/v1" }},
		{name: "machine without cpu model", mutate: func(d map[string]any) {
			d["machine"].(map[string]any)["cpu_model"] = ""
		}},
		{name: "unknown workload", mutate: func(d map[string]any) {
			d["workloads"].([]any)[0].(map[string]any)["name"] = "nope"
		}},
		{name: "missing end-to-end metric", mutate: func(d map[string]any) {
			delete(d["workloads"].([]any)[0].(map[string]any)["metrics"].(map[string]any), "throughput_sps")
		}},
		{name: "metric without unit", mutate: func(d map[string]any) { metric(d, "setup_s")["unit"] = "" }},
		{name: "metric with wrong unit", mutate: func(d map[string]any) { metric(d, "setup_s")["unit"] = "ms" }},
		{name: "unknown metric", mutate: func(d map[string]any) {
			d["workloads"].([]any)[0].(map[string]any)["metrics"].(map[string]any)["speed"] =
				map[string]any{"value": 1, "unit": "x"}
		}},
		{name: "non-finite value", mutate: func(d map[string]any) { metric(d, "setup_s")["value"] = 123.25 },
			text: func(raw string) string { return strings.Replace(raw, "123.25", "1e999", 1) }},
		{name: "p99 below p50", mutate: func(d map[string]any) { metric(d, "latency_p99_ms")["value"] = 0.5 }},
		{name: "error rate above 1", mutate: func(d map[string]any) { metric(d, "error_rate")["value"] = 1.5 }},
		{name: "negative error rate", mutate: func(d map[string]any) { metric(d, "error_rate")["value"] = -0.1 }},
		{name: "failed above attempted", mutate: func(d map[string]any) {
			d["workloads"].([]any)[0].(map[string]any)["failed"] = 11
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := validReport(t, spec)
			if tc.mutate != nil {
				tc.mutate(doc)
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.text != nil {
				raw = []byte(tc.text(string(raw)))
			}
			_, err = decodeReport(raw, spec)
			if tc.name == "valid" {
				if err != nil {
					t.Fatalf("valid report rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("report accepted")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(tc.in); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	same := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", same, []float64{101, 100, 99, 102, 100}, "lower", "unchanged"},
		{"worse beyond bound", same, []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"better, every pair won", same, []float64{90, 91, 89, 90, 92}, "lower", "better"},
		{"throughput up is better", same, []float64{120, 121, 119, 120, 122}, "higher", "better"},
		{"spread wider than bound", []float64{60, 100, 140, 80, 120}, same, "lower", "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.better, 0.1, false); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := verdict([]float64{0, 0}, []float64{0, 0.01}, "lower", 0, true); got != "worse" {
		t.Errorf("error rate rising from 0: verdict = %s, want worse", got)
	}
}
