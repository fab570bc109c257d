package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmcpower/internal/obs"
)

// TestMetricsExpositionByteStable exercises the registry-backed
// /metrics endpoint: after traffic on several endpoints the
// exposition must contain the request-latency histograms, session
// counters and gauges, with metric families and label sets in
// canonical sorted order — byte-for-byte identical across renders.
func TestMetricsExpositionByteStable(t *testing.T) {
	// Pin the clock: the uptime gauge samples Now at render time, and
	// byte-stability is a fixed-values property.
	s, ts := newTestServer(t, Config{Now: newFakeClock().Now})

	for _, path := range []string{"/healthz", "/v1/models", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// One predict request (even a rejected one) lands in the request
	// histogram via the middleware.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	first := string(body)
	for _, want := range []string{
		`pmcpowerd_requests_total{path="/healthz"} 2`,
		`pmcpowerd_requests_total{path="/v1/models"} 1`,
		`pmcpowerd_request_seconds_count{path="/v1/predict"} 1`,
		`pmcpowerd_samples_rejected_total{reason="parse"} 1`,
		"pmcpowerd_sessions_active 0",
		"pmcpowerd_models 1",
		"# TYPE pmcpowerd_request_seconds histogram",
		"# TYPE pmcpowerd_requests_total counter",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, first)
		}
	}

	// Byte-stable: with no traffic in between, two renders must be
	// identical bytes (the registry guarantees canonical ordering, not
	// insertion ordering).
	direct1 := s.Metrics().Render()
	direct2 := s.Metrics().Render()
	if direct1 != direct2 {
		t.Fatalf("registry render not byte-stable:\n--- 1 ---\n%s--- 2 ---\n%s", direct1, direct2)
	}

	// Canonical ordering: family names must appear in sorted order.
	var lastFamily string
	for _, line := range strings.Split(direct1, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fam := strings.Fields(line)[2]
		if lastFamily != "" && fam < lastFamily {
			t.Errorf("family %q rendered after %q — not sorted", fam, lastFamily)
		}
		lastFamily = fam
	}
	if got := s.Metrics().TotalRequests(); got < 5 {
		t.Errorf("TotalRequests = %d, want >= 5", got)
	}
}

// syncBuffer is a goroutine-safe log sink: the middleware writes the
// request record after the handler returns, which can race a client
// that has already read the full response.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestRequestLogging asserts the middleware's request records: one
// structured JSON record per request with method, path, status,
// session id and an integer duration_us, written at info for a failed
// request and at debug for a successful one — so the default info
// level logs the 4xx request and not the 2xx one.
func TestRequestLogging(t *testing.T) {
	for _, tc := range []struct {
		level     slog.Level
		wantOK    bool   // whether the 2xx request is logged
		wantLevel string // the 2xx record's level
	}{
		{slog.LevelInfo, false, ""},
		{slog.LevelDebug, true, "DEBUG"},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			var logBuf syncBuffer
			_, ts := newTestServer(t, Config{Logger: obs.NewLogger(&logBuf, tc.level)})
			for _, req := range []struct{ method, path, body string }{
				{"GET", "/healthz?session=abc", ""},
				{"POST", "/v1/predict?session=abc", "{"}, // 400: malformed body
			} {
				r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			// The failed request comes last, so once its record is out
			// every record this test can cause is.
			records := func() map[string]map[string]any {
				byPath := map[string]map[string]any{}
				for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
					dec := json.NewDecoder(strings.NewReader(line))
					dec.UseNumber()
					var rec map[string]any
					if dec.Decode(&rec) == nil && rec["msg"] == "request" {
						byPath[rec["path"].(string)] = rec
					}
				}
				return byPath
			}
			deadline := time.Now().Add(2 * time.Second)
			for records()["/v1/predict"] == nil && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			got := records()
			check := func(path, level string, status int) {
				t.Helper()
				rec := got[path]
				if rec == nil {
					t.Fatalf("no request record for %s:\n%s", path, logBuf.String())
				}
				if rec["level"] != level || rec["status"] != json.Number(strconv.Itoa(status)) || rec["session"] != "abc" {
					t.Errorf("%s record = %v, want level %s, status %d, session abc", path, rec, level, status)
				}
				if us, ok := rec["duration_us"].(json.Number); !ok || strings.ContainsAny(string(us), ".eE") {
					t.Errorf("%s record duration_us = %v, want an integer", path, rec["duration_us"])
				}
				if _, ok := rec["duration_ms"]; ok {
					t.Errorf("%s record still carries duration_ms: %v", path, rec)
				}
			}
			check("/v1/predict", "INFO", http.StatusBadRequest)
			if tc.wantOK {
				check("/healthz", tc.wantLevel, http.StatusOK)
			} else if rec := got["/healthz"]; rec != nil {
				t.Errorf("a %v logger logged the 2xx request: %v", tc.level, rec)
			}
		})
	}
}

// TestRequestSpans asserts the middleware records one span per
// request on the configured tracer.
func TestRequestSpans(t *testing.T) {
	tracer := obs.NewTracer()
	_, ts := newTestServer(t, Config{Tracer: tracer})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for tracer.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	spans := tracer.Spans()
	if len(spans) < 3 {
		t.Fatalf("tracer has %d spans, want >= 3", len(spans))
	}
	for _, s := range spans {
		if s.Name != "http /healthz" {
			t.Errorf("unexpected span %q", s.Name)
		}
	}
}
