package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// The fast NDJSON parse/encode paths promise byte-identity with the
// encoding/json routes: they either reproduce the exact bytes and
// semantics or bail so the slow path answers. These tests pin that
// contract — first at the wire (the server must reproduce a committed
// transcript of a gauntlet of edge-case inputs, see golden_test.go),
// then at the unit level for the float formatter and number scanner,
// whose corner cases are easiest to hit directly. FuzzParseSample
// (parse_fuzz_test.go) does the same for the sample parser.

// ratesJSON renders a row's full rate map as a JSON object fragment.
func ratesJSON(t *testing.T, r *acquisition.Row) string {
	t.Helper()
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	b, err := json.Marshal(rates)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wireSpecs is the transcript of testdata/fastpath_wire.golden: the
// NDJSON gauntlet, then every per-sample rejection reason both as a
// stream's first line and mid-stream, then batch prediction's success
// and rejections.
func wireSpecs(t *testing.T) []equivSpec {
	_, rows := fixture(t)
	rj := ratesJSON(t, rows[0])
	withRates := func(timeNs uint64, rates string) string {
		return fmt.Sprintf(`{"time_ns":%d,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, timeNs, rates)
	}
	valid := func(timeNs uint64) string { return withRates(timeNs, rj) }
	labelled := func(timeNs uint64, powerW string) string {
		return fmt.Sprintf(`{"time_ns":%d,"freq_mhz":2000,"voltage_v":1.05,"power_w":%s,"rates":%s}`, timeNs, powerW, rj)
	}
	// One line just over maxLineBytes.
	oversized := `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	// Each stream is one NDJSON request on its own named session, so
	// cross-request state like last-time_ns carries over only where a
	// session name repeats.
	stream := func(session string, lines ...string) equivSpec {
		return equivSpec{method: "POST", path: "/v1/estimate?model=m&session=" + session,
			body: strings.Join(lines, "\n") + "\n"}
	}
	specs := []equivSpec{
		// Plain accepted lines, then generous whitespace.
		stream("g00", valid(1e6), "  { \"time_ns\" : 2000000 , \"freq_mhz\": 2000, \"voltage_v\": 1.05, \"rates\": "+rj+" }  "),
		// Empty object: zero operating point, rejected in-stream.
		stream("g01", valid(1e6), `{}`, valid(2e6)),
		// Escaped key spellings force the slow path; result identical.
		stream("g02", `{"time_\u006es":1000000,"freq_mhz":2000,"voltage_v":1.05,"rates":`+rj+`}`),
		// Duplicate scalar key: last one wins.
		stream("g03", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":900,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		// Duplicate rates objects merge key-by-key: the overriding key
		// reuses the first object's spelling, so the last value wins.
		// An event named under both spellings is refused instead (the
		// exchanges appended at the end).
		stream("g04", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":2000,"voltage_v":1.05,"rates":%s,"rates":{"PAPI_LST_INS":0.33}}`, rj)),
		// Unknown top-level field: DisallowUnknownFields error.
		stream("g05", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":2000,"voltage_v":1.05,"label":"x","rates":%s}`, rj)),
		// null leaves the field zero (encoding/json semantics).
		stream("g06", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":null,"voltage_v":1.05,"rates":%s}`, rj)),
		// Number grammar violations and exponent spellings.
		stream("g07", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":01,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g08", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":2e3,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g09", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":2.0E+03,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g10", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":.5,"voltage_v":1.05,"rates":%s}`, rj)),
		// time_ns is uint64: sign, fraction, exponent, overflow all reject.
		stream("g11", fmt.Sprintf(`{"time_ns":-1,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g12", fmt.Sprintf(`{"time_ns":1.5,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g13", fmt.Sprintf(`{"time_ns":1e6,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g14", fmt.Sprintf(`{"time_ns":18446744073709551615,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		stream("g15", fmt.Sprintf(`{"time_ns":18446744073709551616,"freq_mhz":2000,"voltage_v":1.05,"rates":%s}`, rj)),
		// Unknown event and non-number rate values.
		stream("g16", valid(1e6), withRates(2e6, `{"NO_SUCH_EV":1}`), valid(3e6)),
		stream("g17", withRates(1e6, `{"LST_INS":"x"}`)),
		// Labelled sample (power_w present).
		stream("g18", labelled(1e6, "31.25")),
		// Trailing bytes after the object: Decoder.Decode stops at the
		// closing brace, so the junk is ignored on both paths.
		stream("g19", valid(1e6)+" trailing junk"),
		// Non-object top level and blank lines.
		stream("g20", `[1,2]`),
		stream("g21", valid(1e6), "   ", valid(2e6)),
		// Cache churn on one session: full set, a dropped event
		// (rejected), the full set again, then the same keys spelled
		// in a different order — every transition must be invisible.
		stream("g22", valid(1e6), withRates(2e6, `{"LST_INS":0.4}`), valid(3e6),
			withRates(4e6, reorderedRates(t, rows[0])), valid(5e6)),

		// Every per-sample rejection reason, first as a stream's first
		// line (HTTP 400, nothing streamed) and then mid-stream (an
		// NDJSON error row between two estimates).
		stream("parse-first", `{"time_ns":1000000,"freq_mhz":2000`),
		stream("parse-mid", valid(1e6), `{"time_ns":2000000,"freq_mhz":`, valid(3e6)),
		stream("unknown-first", withRates(1e6, `{"NO_SUCH_EV":1}`)),
		stream("unknown-mid", valid(1e6), withRates(2e6, `{"PAPI_NO_SUCH_EV":1}`), valid(3e6)),
		stream("missing-first", withRates(1e6, `{"LST_INS":0.4}`)),
		stream("missing-mid", valid(1e6), withRates(2e6, `{"TOT_CYC":1e9}`), valid(3e6)),
		stream("rate-first", mutatedLine(t, rows[0], 1e6, "LST_INS", -1)),
		stream("rate-mid", valid(1e6), mutatedLine(t, rows[0], 2e6, "TOT_CYC", -5), valid(3e6)),
		// The operating point is checked twice: a fractional frequency
		// at the wire, a zero voltage by the estimator.
		stream("operpt-first", fmt.Sprintf(`{"time_ns":1000000,"freq_mhz":2000,"voltage_v":0,"rates":%s}`, rj)),
		stream("operpt-mid", valid(1e6), fmt.Sprintf(`{"time_ns":2000000,"freq_mhz":2000.5,"voltage_v":1.05,"rates":%s}`, rj), valid(3e6)),
		// Out of order across requests needs the session's last time.
		stream("order-first", valid(5e6)),
		stream("order-first", valid(1e6)),
		stream("order-mid", valid(2e6), valid(1e6), valid(3e6)),
		// A power label is validated only where it is used: on a
		// refitting session.
		equivSpec{method: "POST", path: "/v1/estimate?model=m&refit=32&session=power-first",
			body: labelled(1e6, "0") + "\n"},
		equivSpec{method: "POST", path: "/v1/estimate?model=m&refit=32&session=power-mid",
			body: labelled(1e6, "31.25") + "\n" + labelled(2e6, "-1") + "\n" + labelled(3e6, "30") + "\n"},
		// An over-long line ends the stream.
		stream("oversized-first", oversized),
		stream("oversized-mid", valid(1e6), oversized),
	}

	// Batch prediction: one success, then each rejection, the bad row
	// second so the error names its index.
	row0 := rowToWire(rows[0])
	predict := func(model string, bad ...wireRow) equivSpec {
		b, err := json.Marshal(predictRequest{Model: model, Rows: append([]wireRow{row0}, bad...)})
		if err != nil {
			t.Fatal(err)
		}
		return equivSpec{method: "POST", path: "/v1/predict", body: string(b)}
	}
	mutRow := func(mut func(*wireRow)) wireRow {
		w := rowToWire(rows[1])
		mut(&w)
		return w
	}
	// Exactly one byte over the default MaxBodyBytes, so the whole body
	// is read before the 413.
	const bodyCap = 8 << 20
	bigHead := `{"model":"m","rows":[`
	big := bigHead + strings.Repeat(" ", bodyCap+1-len(bigHead))
	specs = append(specs,
		predict("m", rowToWire(rows[1]), rowToWire(rows[2])),
		equivSpec{method: "POST", path: "/v1/predict", body: `{"model":"m","rows":[{"freq_mhz":"fast"}]}`},
		predict("m", mutRow(func(w *wireRow) { w.Rates = map[string]float64{"NO_SUCH_EV": 1} })),
		predict("m", mutRow(func(w *wireRow) { delete(w.Rates, "PAPI_TOT_CYC") })),
		predict("m", mutRow(func(w *wireRow) { w.Rates["PAPI_LST_INS"] = -1 })),
		predict("m", mutRow(func(w *wireRow) { w.FreqMHz = 0 })),
		equivSpec{method: "POST", path: "/v1/predict", body: big},
		equivSpec{method: "POST", path: "/v1/predict", body: `{"model":"m","rows":[]}`},
		predict("ghost"),
	)

	// A refitting session whose window fills and refreshes: the
	// stream of TestEstimateStreamRefitBitIdentical, so the later rows
	// carry model_version ≥ 1 and pin the refit arithmetic.
	var refit []string
	for i, r := range interleaved(rows, 60) {
		refit = append(refit, labelledLine(t, r, uint64(i)*1e8, r.PowerW))
	}
	specs = append(specs, equivSpec{method: "POST",
		path: "/v1/estimate?model=m&alpha=0.3&refit=24&session=refit-primes",
		body: strings.Join(refit, "\n") + "\n"})

	// Two unknown names, and one event under both spellings, as a
	// stream's first line and as predict's row 1: the lowest unknown
	// name is named, and the two spellings are a parse error, on both
	// endpoints whatever order the names' map iterates in.
	withExtra := func(extra string) string { return strings.Replace(rj, "{", "{"+extra+",", 1) }
	return append(specs,
		stream("unknown-two-first", withRates(1e6, withExtra(`"NO_SUCH_B":1,"NO_SUCH_A":1`))),
		stream("spellings-first", withRates(1e6, withExtra(`"LST_INS":0.33`))),
		predict("m", mutRow(func(w *wireRow) { w.Rates["NO_SUCH_B"], w.Rates["NO_SUCH_A"] = 1, 1 })),
		predict("m", mutRow(func(w *wireRow) { w.Rates["LST_INS"] = 0.33 })),
	)
}

func TestFastPathWireEquivalence(t *testing.T) {
	specs := wireSpecs(t)
	replies := recordTranscript(t, equivServer(t, Config{}), specs)
	checkReasonCoverage(t, specs, replies)
	checkGolden(t, "testdata/fastpath_wire.golden", renderTranscript(specs, replies))
}

// checkReasonCoverage requires every per-sample rejection reason to
// appear in the transcript both as a first-line rejection (an HTTP 400
// before any row) and as an NDJSON error row mid-stream.
func checkReasonCoverage(t *testing.T, specs []equivSpec, replies []reply) {
	t.Helper()
	first, mid := map[string]bool{}, map[string]bool{}
	for i, r := range replies {
		if !strings.HasPrefix(specs[i].path, "/v1/estimate") {
			continue
		}
		if r.status == http.StatusBadRequest {
			var we wireError
			if json.Unmarshal(r.body, &we) == nil {
				first[we.Reason] = true
			}
			continue
		}
		for _, line := range bytes.Split(r.body, []byte("\n")) {
			var we wireError
			if json.Unmarshal(line, &we) == nil && we.Reason != "" {
				mid[we.Reason] = true
			}
		}
	}
	for _, reason := range []string{ReasonParse, ReasonUnknownEv, ReasonMissingEv, ReasonBadRate,
		ReasonBadOperPt, ReasonOutOfOrder, ReasonBadPower, ReasonOversized} {
		if !first[reason] {
			t.Errorf("no stream is rejected on its first line with reason %q", reason)
		}
		if !mid[reason] {
			t.Errorf("no stream carries a mid-stream error row with reason %q", reason)
		}
	}
}

// reorderedRates renders the row's rates with keys in reverse-sorted
// order — same content as ratesJSON, different byte order, so the
// fast parser's key-sequence cache must miss and rebuild.
func reorderedRates(t *testing.T, r *acquisition.Row) string {
	t.Helper()
	names := make([]string, 0, len(r.Rates))
	vals := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		n := pmu.Lookup(id).Name
		names = append(names, n)
		vals[n] = v
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%s":%v`, n, vals[n])
	}
	b.WriteByte('}')
	return b.String()
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}

	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 31.25, 1e20, 1e21, 1e22,
		1e-6, 9.999999e-7, 1e-7, 1e-9, -1e-9, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 0.1, 1.0 / 3.0, 1.2345678901234567, 2e3,
		6.62607015e-34, 123456789012345680000,
	} {
		check(f)
	}

	rng := rand.New(rand.NewSource(7))
	n := 0
	for n < 5000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(f)
		n++
	}
}

func TestScanJSONNumberMatchesJSONGrammar(t *testing.T) {
	cases := []string{
		"0", "-0", "1", "-1", "01", "00", "1.", ".5", "1.5", "-1.5",
		"1e", "1e+", "1e5", "1e+5", "1E-5", "1e01", "1.0e0", "-",
		"123.456e-78", "0.0", "1.5e", "9007199254740993", "--1", "+1",
		"1..2", "1ee2", "", "1e-",
	}
	for _, c := range cases {
		_, _, _, _, next, ok := scanNumber([]byte(c), 0)
		got := ok && next == len(c)
		want := json.Valid([]byte(c))
		if got != want {
			t.Errorf("scanNumber(%q) accepts=%v, json.Valid=%v", c, got, want)
		}
	}
}

func TestWriteEstimateFastMatchesEncoder(t *testing.T) {
	encode := func(we wireEstimate) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(we); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []wireEstimate{
		{},
		{TimeNs: 1e6, InstantW: 31.25, SmoothedW: 30.9, TotalJ: 0.03125, Samples: 1, ModelVersion: 0},
		{TimeNs: math.MaxUint64, InstantW: 1e-9, SmoothedW: 1e21, TotalJ: -0.0, Samples: 42, ModelVersion: 7},
		{TimeNs: 5e6, InstantW: 1.0 / 3.0, Samples: 3, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
	}
	for i, we := range cases {
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		var scratch []byte
		writeEstimateFast(bw, &scratch, we)
		bw.Flush()
		if want := encode(we); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("case %d: fast %q, encoder %q", i, out.Bytes(), want)
		}
	}

	// A stream stamps its trace id, or none, on every row, byte for
	// byte as the encoder alone would.
	s := New(Config{})
	defer s.Close()
	for _, id := range []string{"", "4bf92f3577b34da6a3ce929d0e0e4736"} {
		st := s.takeStream(id, nil)
		var out bytes.Buffer
		st.w = &discardWriter{header: http.Header{}}
		st.br = bufio.NewReader(strings.NewReader(""))
		st.bw = bufio.NewWriter(&out)
		we := cases[1]
		we.TraceID = id
		st.encode(core.StreamEstimate{TimeNs: we.TimeNs, InstantW: we.InstantW, SmoothedW: we.SmoothedW,
			TotalJoules: we.TotalJ, Samples: we.Samples, ModelVersion: we.ModelVersion})
		st.bw.Flush()
		if want := encode(we); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("trace id %q: stream row %q, encoder %q", id, out.Bytes(), want)
		}
		s.putStream(st)
	}
}
