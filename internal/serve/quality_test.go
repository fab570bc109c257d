package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pmcpower/internal/core"
	"pmcpower/internal/quality"
	"pmcpower/internal/rng"
)

// getJSON fetches url and strict-decodes the body into out, returning
// the status code: a field the documented shape lacks fails the test.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// qualityTestThresholds trip on a label drift of +20 % or more: the
// windowed MAPE settles at 0.2/1.2 ≈ 16.7 % or above, past alert at
// 12 %.
var qualityTestThresholds = quality.Thresholds{WarnMAPEPct: 5, AlertMAPEPct: 12}

// TestQualityDriftEndToEnd drives the whole observability surface over
// HTTP: an accurate labelled stream holds the model at ok, a ramped
// label drift walks it through warn into alert, /v1/status reports the
// degradation, shallow health stays green while deep health flips 503,
// and /debug/exemplars holds the worst residuals. The labels are the
// model's own prediction scaled up, which is what a decalibrating
// power reference looks like to a frozen model.
func TestQualityDriftEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		// campaign streams the five-P-state model's rows, shuffled; the
		// other case streams the fixture's first row only.
		campaign          bool
		window, exemplars int
		healthy, drifting int
		drift             float64
	}{
		{name: "one-row", window: 32, exemplars: 8, healthy: 48, drifting: 120, drift: 0.30},
		{name: "campaign", campaign: true, window: 64, exemplars: 16, healthy: 128, drifting: 300, drift: 0.20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, rows := fixture(t)
			cfg := Config{QualityWindow: tc.window, QualityExemplars: tc.exemplars, QualityThresholds: qualityTestThresholds}
			order := []int{0}
			if tc.campaign {
				m, rows = campaignFixture(t)
				cfg.Registry = campaignRegistry(t)
				order = rng.New(7).Perm(len(rows))
			}
			s, ts := newTestServer(t, cfg)
			var timeNs uint64
			stream := func(n int, scale func(i int) float64) {
				t.Helper()
				lines := make([]string, n)
				for i := range lines {
					r := rows[order[i%len(order)]]
					timeNs += 1e6
					lines[i] = labelledLine(t, r, timeNs, m.Predict(r)*scale(i))
				}
				if st, ests, errs := streamEstimates(t, ts, "?model=m&session=q1", lines); st != http.StatusOK || len(errs) != 0 || len(ests) != n {
					t.Fatalf("stream: status %d, %d estimates, %d error lines; want 200, %d, 0", st, len(ests), len(errs), n)
				}
			}

			// Healthy phase: labels equal the prediction, so the windowed
			// MAPE is exactly zero.
			stream(tc.healthy, func(int) float64 { return 1 })
			var status StatusResponse
			if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
				t.Fatalf("/v1/status = %d", code)
			}
			if len(status.Quality) != 1 || status.Quality[0].Model != "m@1" {
				t.Fatalf("quality block = %+v", status.Quality)
			}
			if q := status.Quality[0]; q.State != "ok" || q.WindowMAPEPct > 0.01 || q.LabelledSamples != uint64(tc.healthy) {
				t.Fatalf("healthy quality = %+v", q)
			}
			if status.Health.Status != "ok" {
				t.Fatalf("healthy status = %q", status.Health.Status)
			}
			if code := getJSON(t, ts.URL+"/healthz?deep=1", nil); code != http.StatusOK {
				t.Fatalf("healthy deep health = %d", code)
			}

			// Drift phase: the label walks away from the prediction. The
			// windowed MAPE crosses warn (5%) and then alert (12%).
			stream(tc.drifting, func(i int) float64 { return 1 + tc.drift*float64(i+1)/float64(tc.drifting) })
			if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
				t.Fatalf("/v1/status = %d", code)
			}
			q := status.Quality[0]
			if q.State != "alert" {
				t.Fatalf("post-drift state = %q (%+v)", q.State, q)
			}
			if q.WindowMAPEPct < 12 {
				t.Errorf("post-drift window MAPE = %v%%, want >= 12", q.WindowMAPEPct)
			}
			if q.WarnTransitions < 1 || q.AlertTransitions < 1 {
				t.Errorf("transitions warn=%d alert=%d, want >= 1 each", q.WarnTransitions, q.AlertTransitions)
			}
			if q.LabelledSamples != uint64(tc.healthy+tc.drifting) {
				t.Errorf("labelled samples = %d, want %d", q.LabelledSamples, tc.healthy+tc.drifting)
			}
			if q.ErrP99W <= 0 || q.ErrP50W > q.ErrP99W {
				t.Errorf("error quantiles p50=%v p99=%v", q.ErrP50W, q.ErrP99W)
			}
			if status.Health.Status != "alert" || len(status.Health.AlertingModels) != 1 || status.Health.AlertingModels[0] != "m@1" {
				t.Errorf("health block = %+v", status.Health)
			}

			// Shallow health keeps passing — the daemon can still serve —
			// but deep health drains the node.
			if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
				t.Errorf("shallow health = %d, want 200", code)
			}
			resp, err := http.Get(ts.URL + "/healthz?deep=1")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("deep health = %d, want 503", resp.StatusCode)
			}
			if !strings.Contains(string(body), "m@1") {
				t.Errorf("deep health body %q does not name the alerting model", body)
			}

			// Exemplars: the worst residuals were captured, worst first,
			// with the full sample context. The drift labels sit above the
			// prediction, so residuals are negative (underestimation), and
			// the frozen model's version is 0.
			var ex exemplarsResponse
			if code := getJSON(t, ts.URL+"/debug/exemplars", &ex); code != http.StatusOK {
				t.Fatalf("/debug/exemplars = %d", code)
			}
			if len(ex.Exemplars) != tc.exemplars {
				t.Fatalf("exemplar count = %d, want %d", len(ex.Exemplars), tc.exemplars)
			}
			if worst := ex.Exemplars[0]; worst.Session != "q1" || len(worst.Rates) == 0 {
				t.Errorf("worst exemplar context = %+v", worst)
			}
			for i, e := range ex.Exemplars {
				if e.Model != "m@1" || e.ResidualW >= 0 || e.ModelVersion != 0 {
					t.Errorf("exemplar %d: model %q, residual %v, version %d; want m@1, negative, 0", i, e.Model, e.ResidualW, e.ModelVersion)
				}
				if i > 0 && abs(e.ResidualW) > abs(ex.Exemplars[i-1].ResidualW) {
					t.Errorf("exemplars not sorted worst-first at %d", i)
				}
			}

			// Metrics: the state gauge and transition counters are published.
			rendered := s.Metrics().Render()
			for _, want := range []string{
				`pmcpowerd_quality_state{model="m@1"} 2`,
				`pmcpowerd_quality_transitions_total{model="m@1",to="warn"} 1`,
				`pmcpowerd_quality_transitions_total{model="m@1",to="alert"} 1`,
				`pmcpowerd_build_info{goversion="go`,
				"pmcpowerd_uptime_seconds",
			} {
				if !strings.Contains(rendered, want) {
					t.Errorf("/metrics lacks %q", want)
				}
			}
			if n := metric(t, s, rejectedFamily); n != 0 {
				t.Errorf("%v samples rejected", n)
			}
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestQualityLedgerStartsAtFirstLabel: a model version's quality
// ledger opens with its first labelled sample, as StatusResponse.Quality
// documents. Unlabelled traffic adds no /v1/status quality entry and no
// pmcpowerd_quality_state series; one labelled sample adds exactly one
// of each.
func TestQualityLedgerStartsAtFirstLabel(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	ledger := func() ([]ModelQuality, int) {
		t.Helper()
		var status StatusResponse
		if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
			t.Fatalf("/v1/status = %d", code)
		}
		return status.Quality, strings.Count(s.Metrics().Render(), "pmcpowerd_quality_state{")
	}

	if code, ests, _ := streamEstimates(t, ts, "?model=m&session=q", []string{sampleLine(t, rows[0], 1e6)}); code != http.StatusOK || len(ests) != 1 {
		t.Fatalf("unlabelled stream: status %d, %d estimates", code, len(ests))
	}
	if q, series := ledger(); len(q) != 0 || series != 0 {
		t.Fatalf("after an unlabelled sample: quality %+v, %d quality_state series; want none", q, series)
	}

	if code, ests, _ := streamEstimates(t, ts, "?model=m&session=q", []string{labelledLine(t, rows[1], 2e6, rows[1].PowerW)}); code != http.StatusOK || len(ests) != 1 {
		t.Fatalf("labelled stream: status %d, %d estimates", code, len(ests))
	}
	if q, series := ledger(); len(q) != 1 || q[0].Model != "m@1" || q[0].LabelledSamples != 1 || series != 1 {
		t.Fatalf("after one labelled sample: quality %+v, %d quality_state series; want one m@1 entry and one series", q, series)
	}
}

// TestHealthReadiness pins the readiness semantics: a daemon with no
// models is not ready (503), one with a model is.
func TestHealthReadiness(t *testing.T) {
	s := New(Config{Registry: NewRegistry()})
	defer s.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty-registry /healthz = %d, want 503", rec.Code)
	}

	var status StatusResponse
	req = httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Health.Status != "unavailable" || status.Health.ServableModels != 0 {
		t.Fatalf("empty-registry health = %+v", status.Health)
	}

	// With a model registered the same probes pass.
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
}

// TestStatusSchema decodes /v1/status through a strict decoder against
// the documented shape — the same validation pmcpowertop -validate and
// the CI curl step run against a live daemon.
func TestStatusSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{Now: newFakeClock().Now})
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
		t.Fatalf("/v1/status = %d", code)
	}
	if status.Service != "pmcpowerd" || status.Version == "" || !strings.HasPrefix(status.GoVersion, "go") {
		t.Fatalf("identity block = %+v", status)
	}
	if status.UptimeS != 0 {
		t.Fatalf("uptime with a frozen clock = %v, want 0", status.UptimeS)
	}
	if len(status.Models) != 1 || status.Models[0].Name != "m" || !status.Models[0].Latest {
		t.Fatalf("models block = %+v", status.Models)
	}
	if status.Health.ServableModels != 1 || status.Health.Status != "ok" {
		t.Fatalf("health block = %+v", status.Health)
	}
}

// TestQualityPathAllocs is the acceptance gate at the serving layer:
// quality tracking adds zero allocations per labelled sample on the
// warmed steady-state path (session push + model monitor).
func TestQualityPathAllocs(t *testing.T) {
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
	// Two identical streams so the baseline and the instrumented run
	// advance through the same internal states.
	base := mkStream()
	instr := mkStream()
	qmon := quality.NewMonitor(quality.Config{Window: 64, Exemplars: 8})

	cs := counterSample(r, 0)
	var baseNs, instrNs uint64
	warm := func(st *core.StreamSession, ns *uint64, withQ bool) {
		for i := 0; i < 200; i++ {
			*ns += 1e6
			cs.TimeNs = *ns
			est, err := st.PushLabeled(cs, label)
			if err != nil {
				t.Fatal(err)
			}
			if withQ {
				qmon.Observe(quality.Observation{
					TimeNs: cs.TimeNs, FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV,
					Rates: cs.Rates, ModelVersion: est.ModelVersion,
					PredictedW: est.InstantW, ObservedW: label,
				})
			}
		}
	}
	warm(base, &baseNs, false)
	warm(instr, &instrNs, true)

	baseline := testing.AllocsPerRun(500, func() {
		baseNs += 1e6
		cs.TimeNs = baseNs
		if _, err := base.PushLabeled(cs, label); err != nil {
			t.Fatal(err)
		}
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
			Rates: cs.Rates, ModelVersion: est.ModelVersion,
			PredictedW: est.InstantW, ObservedW: label,
		})
	})
	if instrumented > baseline {
		t.Fatalf("quality tracking adds %.2f allocs/op (baseline %.2f, instrumented %.2f), want 0",
			instrumented-baseline, baseline, instrumented)
	}
}
