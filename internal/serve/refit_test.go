package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// labelledLine renders row r as an NDJSON estimate line carrying its
// measured power as the refit label.
func labelledLine(t *testing.T, r *acquisition.Row, timeNs uint64) string {
	t.Helper()
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	p := r.PowerW
	b, err := json.Marshal(wireSample{TimeNs: timeNs, FreqMHz: float64(r.FreqMHz),
		VoltageV: r.VoltageV, Rates: rates, PowerW: &p})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// interleaved mixes the fixture's two frequency blocks so that any
// refit window spans both operating points.
func interleaved(rows []*acquisition.Row, n int) []*acquisition.Row {
	half := len(rows) / 2
	out := make([]*acquisition.Row, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, rows[i%half])
		if len(out) < n {
			out = append(out, rows[half+i%(len(rows)-half)])
		}
	}
	return out
}

// TestEstimateStreamRefitBitIdentical: a labelled stream against
// ?refit=N must serve exactly what a core.StreamSession in refit mode
// produces — instant, smoothed, joules, and the stamped model version,
// bit for bit — and the version must leave 0 once the window fills.
// The oracle is a direct session, so the named case also pins the
// pure-observer contract: with the session table, the quality monitor
// and the flight recorder all in the loop, no row changes.
func TestEstimateStreamRefitBitIdentical(t *testing.T) {
	m, rows := fixture(t)
	const alpha = 0.3
	const window = 24
	const n = 60
	streamRows := interleaved(rows, n)
	lines := make([]string, n)
	for i, r := range streamRows {
		lines[i] = labelledLine(t, r, uint64(i)*1e8)
	}
	query := fmt.Sprintf("?model=m&alpha=%v&refit=%d", alpha, window)

	for _, tc := range []struct {
		name, session, traceparent string
	}{
		{name: "anonymous"},
		{name: "named-traced", session: "oracle", traceparent: testTraceparent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			q := query
			if tc.session != "" {
				q += "&session=" + tc.session
			}
			status, ests, errs := streamEstimatesTraced(t, ts, q, tc.traceparent, lines)
			if status != http.StatusOK {
				t.Fatalf("status = %d, want 200", status)
			}
			if len(errs) != 0 {
				t.Fatalf("unexpected error records: %+v", errs)
			}
			if len(ests) != n {
				t.Fatalf("estimates = %d, want %d", len(ests), n)
			}

			ref, err := core.NewStreamSessionRefit(m, alpha, window)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range streamRows {
				want, err := ref.PushLabeled(counterSample(r, uint64(i)*1e8), r.PowerW)
				if err != nil {
					t.Fatalf("reference push %d: %v", i, err)
				}
				got := ests[i]
				if got.InstantW != want.InstantW || got.SmoothedW != want.SmoothedW ||
					got.TotalJ != want.TotalJoules || got.Samples != want.Samples ||
					got.ModelVersion != want.ModelVersion {
					t.Fatalf("estimate %d: got %+v, want %+v", i, got, want)
				}
			}
			if ests[0].ModelVersion != 0 {
				t.Fatalf("first estimate version = %d, want 0 (frozen until the window fills)", ests[0].ModelVersion)
			}
			if last := ests[n-1].ModelVersion; last == 0 {
				t.Fatal("model version never left 0: streaming refit never refreshed")
			}

			if got := s.Metrics().RefitSamples(); got != n {
				t.Fatalf("refit samples = %d, want %d", got, n)
			}
			if got := s.Metrics().RefitCount(); got == 0 {
				t.Fatal("refits counter stayed 0")
			}
			if !strings.Contains(s.Metrics().Render(), "pmcpowerd_refit_drift_watts") {
				t.Fatal("drift histogram missing from exposition")
			}
			// The observers saw every sample they were handed.
			if q := s.Status().Quality; len(q) != 1 || q[0].LabelledSamples != n {
				t.Fatalf("quality ledger = %+v, want one model with %d labelled samples", q, n)
			}
			if tc.traceparent == "" {
				return
			}
			for _, e := range ests {
				if e.TraceID != testTraceID {
					t.Fatalf("row trace_id = %q, want the pinned %q", e.TraceID, testTraceID)
				}
			}
			recent := s.FlightRecorder().Recent()
			if len(recent) != 1 || recent[0].TraceID != testTraceID || recent[0].Samples != n {
				t.Fatalf("flight recorder summaries = %+v, want the pinned trace with %d samples", recent, n)
			}
		})
	}
}

// TestEstimateFrozenIgnoresPowerLabels: without refit, power_w is
// accepted but inert — versions stay 0 and no refit metrics move.
func TestEstimateFrozenIgnoresPowerLabels(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	lines := make([]string, 10)
	for i := 0; i < 10; i++ {
		lines[i] = labelledLine(t, rows[i], uint64(i)*1e8)
	}
	status, ests, errs := streamEstimates(t, ts, "?model=m", lines)
	if status != http.StatusOK || len(errs) != 0 {
		t.Fatalf("status = %d, errs = %+v", status, errs)
	}
	for i, e := range ests {
		if e.ModelVersion != 0 {
			t.Fatalf("estimate %d version = %d, want 0 on a frozen session", i, e.ModelVersion)
		}
	}
	if got := s.Metrics().RefitSamples(); got != 0 {
		t.Fatalf("refit samples = %d, want 0 (no refit session)", got)
	}
}

// TestEstimateServerDefaultRefitWindow: Config.RefitWindow applies to
// sessions that do not pass ?refit=, and ?refit=0 opts back out.
func TestEstimateServerDefaultRefitWindow(t *testing.T) {
	_, rows := fixture(t)
	_, ts := newTestServer(t, Config{RefitWindow: 24})
	const n = 60
	streamRows := interleaved(rows, n)
	lines := make([]string, n)
	for i, r := range streamRows {
		lines[i] = labelledLine(t, r, uint64(i)*1e8)
	}
	status, ests, _ := streamEstimates(t, ts, "?model=m", lines)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if ests[n-1].ModelVersion == 0 {
		t.Fatal("server-default refit window did not take effect")
	}
	status, ests, _ = streamEstimates(t, ts, "?model=m&refit=0", lines)
	if status != http.StatusOK {
		t.Fatalf("refit=0 status = %d, want 200", status)
	}
	if ests[n-1].ModelVersion != 0 {
		t.Fatal("?refit=0 did not freeze the session")
	}
}

// TestEstimateRefitParamValidation: malformed or infeasible refit
// windows, bad power labels, and inconsistent session reopens are all
// 400s with the right reasons.
func TestEstimateRefitParamValidation(t *testing.T) {
	_, rows := fixture(t)
	_, ts := newTestServer(t, Config{})
	line := sampleLine(t, rows[0], 0)

	post := func(query string, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/estimate"+query, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("?model=m&refit=abc", line); got != 400 {
		t.Fatalf("refit=abc = %d, want 400", got)
	}
	if got := post("?model=m&refit=-1", line); got != 400 {
		t.Fatalf("refit=-1 = %d, want 400", got)
	}
	// 6 events + 3 → 9 design columns: window 9 is underdetermined.
	if got := post("?model=m&refit=9", line); got != 400 {
		t.Fatalf("refit=9 = %d, want 400 (window must exceed design width)", got)
	}

	// A bad power label rejects the sample with bad_power.
	bad := strings.Replace(labelledLine(t, rows[0], 0), `"power_w":`, `"power_w":-`, 1)
	resp, err := http.Post(ts.URL+"/v1/estimate?model=m&refit=24", "application/x-ndjson", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || we.Reason != ReasonBadPower {
		t.Fatalf("negative power: status %d reason %q, want 400 %q", resp.StatusCode, we.Reason, ReasonBadPower)
	}

	// Named sessions pin their refit window at creation.
	if got := post("?model=m&session=rw&refit=24", ""); got != 200 {
		t.Fatalf("open refit session = %d, want 200", got)
	}
	if got := post("?model=m&session=rw&refit=32", ""); got != 400 {
		t.Fatalf("reopen with different refit = %d, want 400", got)
	}
	if got := post("?model=m&session=rw", ""); got != 400 {
		t.Fatalf("reopen frozen = %d, want 400", got)
	}
	if got := post("?model=m&session=rw&refit=24", ""); got != 200 {
		t.Fatalf("reopen matching refit = %d, want 200", got)
	}
}

// TestEstimateRejectsBadFrequency is the streaming side of the
// frequency-validation fix: a NaN frequency used to pass `freq <= 0`
// as false when the wire field was an int (and non-integral values
// silently truncated). NaN/Inf are not valid JSON so they die at
// parse; huge and fractional values parse and must be rejected as
// operating points before the int conversion can corrupt them.
func TestEstimateRejectsBadFrequency(t *testing.T) {
	_, rows := fixture(t)
	s, ts := newTestServer(t, Config{})
	r0 := rows[0]
	ratesJSON := func() string {
		rates := make(map[string]float64, len(r0.Rates))
		for id, v := range r0.Rates {
			rates[pmu.Lookup(id).Name] = v
		}
		b, _ := json.Marshal(rates)
		return string(b)
	}()
	mk := func(freq string) string {
		return fmt.Sprintf(`{"time_ns":0,"freq_mhz":%s,"voltage_v":%v,"rates":%s,"power_w":null}`,
			freq, r0.VoltageV, ratesJSON)
	}

	cases := []struct {
		freq   string
		reason string
	}{
		{"NaN", ReasonParse},      // not JSON: dies in the decoder
		{"Infinity", ReasonParse}, // not JSON either
		{"1e308", ReasonBadOperPt},
		{"2400.5", ReasonBadOperPt},
		{"-2400", ReasonBadOperPt},
		{"0", ReasonBadOperPt},
	}
	for _, tc := range cases {
		status, _, _ := streamEstimates(t, ts, "?model=m", []string{mk(tc.freq)})
		if status != 400 {
			t.Fatalf("freq %s: status = %d, want 400", tc.freq, status)
		}
	}
	if got := s.Metrics().Rejected(ReasonBadOperPt); got < 4 {
		t.Fatalf("bad_operating_point rejects = %d, want >= 4", got)
	}
}
