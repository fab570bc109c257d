package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pmcpower/internal/pmu"
)

func TestModelJSONRoundTrip(t *testing.T) {
	m := trainedModel(t)
	_, full := fixtures(t)

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients survive exactly.
	if got.Beta != m.Beta || got.Gamma != m.Gamma || got.Delta != m.Delta {
		t.Fatal("scalar coefficients changed in round trip")
	}
	for i := range m.Alpha {
		if got.Alpha[i] != m.Alpha[i] {
			t.Fatal("alpha changed in round trip")
		}
		if got.Events[i] != m.Events[i] {
			t.Fatal("event order changed in round trip")
		}
	}
	// Predictions are bit-identical.
	for _, r := range full.Rows[:25] {
		if got.Predict(r) != m.Predict(r) {
			t.Fatal("loaded model predicts differently")
		}
	}
	// Diagnostics travel along — including the covariance estimator,
	// which the read side must parse back from its string form.
	if got.Fit.R2 != m.Fit.R2 || got.Fit.N != m.Fit.N {
		t.Fatal("diagnostics lost in round trip")
	}
	if got.Fit.Estimator != m.Fit.Estimator {
		t.Fatalf("estimator %v became %v in round trip", m.Fit.Estimator, got.Fit.Estimator)
	}
	if len(got.Fit.StdErr) != len(m.Fit.StdErr) {
		t.Fatal("standard errors lost in round trip")
	}
	for i := range m.Fit.StdErr {
		if got.Fit.StdErr[i] != m.Fit.StdErr[i] {
			t.Fatal("standard errors changed in round trip")
		}
	}
}

func TestReadJSONRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{not json`,
		"wrong version":  `{"version":99,"events":["PAPI_TOT_CYC"],"alpha":[1]}`,
		"no events":      `{"version":1,"events":[],"alpha":[]}`,
		"alpha mismatch": `{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1,2]}`,
		"unknown event":  `{"version":1,"events":["PAPI_NOPE"],"alpha":[1]}`,
		"unknown field":  `{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1],"bogus":true}`,
		"bad estimator":  `{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1],"estimator":"HC9"}`,
	}
	for name, doc := range cases {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Fatalf("case %q: must be rejected", name)
		}
	}
}

// TestReadJSONRejectsDuplicateEvents: a document naming one event
// twice, by full or by short name, is rejected and the error names the
// event.
func TestReadJSONRejectsDuplicateEvents(t *testing.T) {
	for _, doc := range []string{
		`{"version":1,"events":["PAPI_TOT_CYC","PAPI_TOT_CYC"],"alpha":[1,2]}`,
		`{"version":1,"events":["PAPI_TOT_CYC","PAPI_L3_TCM","TOT_CYC"],"alpha":[1,2,3]}`,
	} {
		_, err := ReadJSON(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), "TOT_CYC") || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("%s: err = %v, want a duplicate-event error naming TOT_CYC", doc, err)
		}
	}
}

func TestReadJSONRejectsNonFinite(t *testing.T) {
	// JSON cannot encode NaN directly, but a crafted document with a
	// huge exponent becomes +Inf on parse... it errors at the JSON
	// layer instead. Exercise the guard through a valid parse path:
	// math.MaxFloat64 * 10 overflows to +Inf only via exponent.
	doc := `{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1e999],"beta":0,"gamma":0,"delta":0}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Fatal("overflowing coefficient must be rejected")
	}
}

func TestWriteJSONIsStable(t *testing.T) {
	m := trainedModel(t)
	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialization must be deterministic")
	}
	// And it must be human-auditable JSON with PAPI names.
	if !strings.Contains(a.String(), `"PAPI_TOT_CYC"`) {
		t.Fatal("document must reference events by PAPI name")
	}
}

func TestLoadedModelUsableByOnlineEstimator(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewStreamSession(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := est.Push(sampleFromRow(0, 100, t))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.InstantW) || out.InstantW <= 0 {
		t.Fatalf("loaded-model estimate = %v", out.InstantW)
	}
}

// FuzzReadJSON: a model document is outside input (model upload,
// pmcpowerd -model, estimate -model). ReadJSON never panics on it, an
// accepted document survives WriteJSON → ReadJSON unchanged, and
// Estimate on a sample carrying the model's events returns finite
// watts or an error.
func FuzzReadJSON(f *testing.F) {
	for _, doc := range []string{
		`{"version":1,"events":["PAPI_TOT_CYC","PAPI_L3_TCM"],"alpha":[1.5,-2e-3],"beta":3,"gamma":-4,"delta":5,` +
			`"r2":0.9,"adj_r2":0.89,"std_err":[0.1,0.2,0.3,0.4,0.5],"estimator":"HC3","n":100}`,
		`{"version":1,"events":["LST_INS"],"alpha":[1e300],"beta":1e300,"gamma":0,"delta":-0}`,
		`{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1],"estimator":"nonrobust","std_err":[]}`,
		`{"version":1,"events":["PAPI_TOT_CYC","TOT_CYC"],"alpha":[1,2]}`,
		`{"version":1,"events":["PAPI_TOT_CYC"],"alpha":[1e999]}`,
		`{not json`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := ReadJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("writing an accepted model: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("reading back %s: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the model: %+v became %+v", m, again)
		}
		cs := CounterSample{FreqMHz: 2400, VoltageV: 1, Rates: make(map[pmu.EventID]float64, len(m.Events))}
		for _, id := range m.Events {
			cs.Rates[id] = 1e9
		}
		if p, err := m.Estimate(cs); err == nil && !finite(p) {
			t.Fatalf("Estimate accepted a sample with a non-finite estimate %v", p)
		}
	})
}
