package serve

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// shapeLine is one bench-shaped NDJSON line at time t with the
// frequency spelled freq: the layout TestParseSampleShapeFallback
// primes its workspace with, and the one its variants each change in
// one place.
func shapeLine(t int, freq string) string {
	return fmt.Sprintf(`{"time_ns":%d,"freq_mhz":%s,"voltage_v":1.05,"rates":{"PAPI_LST_INS":2408859030.625509,`+
		`"PAPI_STL_CCY":109959101.75300026,"PAPI_L3_TCM":75626.9485169299,"PAPI_TOT_CYC":2088363826.8801339,`+
		`"PAPI_BR_UCN":24233695.436473288,"PAPI_BR_TKN":%d.5}}`, t*1_000_000, freq, 224819908+t)
}

// shapeFallbackCases are the variants of shapeLine(2, "2400") that
// TestParseSampleShapeFallback sends after a line of the cached shape,
// and testdata/fuzz/FuzzParseSample holds as streams. Each keeps the
// line's layout but for one change; rejected says whether the decoder
// refuses it.
var shapeFallbackCases = []struct {
	name, from, to string
	rejected       bool
}{
	{"whitespace", `,"freq_mhz"`, `, "freq_mhz"`, false},
	{"key-order", `{"time_ns":2000000,"freq_mhz":2400,`, `{"freq_mhz":2400,"time_ns":2000000,`, false},
	{"extra-key", `"voltage_v":1.05,`, `"voltage_v":1.05,"label":"x",`, true},
	{"duplicate-key", `"freq_mhz":2400,`, `"freq_mhz":900,"freq_mhz":2400,`, false},
	{"null", `"voltage_v":1.05`, `"voltage_v":null`, false},
	{"escaped-name", `"PAPI_LST_INS"`, `"PAPI_\u004cST_INS"`, false},
	{"unknown-event", `"PAPI_BR_UCN"`, `"PAPI_NO_SUCH_EV"`, true},
	{"fractional-freq", `"freq_mhz":2400,`, `"freq_mhz":2400.5,`, true},
	{"broken-number", `"PAPI_L3_TCM":75626.9485169299`, `"PAPI_L3_TCM":75626.e5`, true},
}

// shapeFallbackStream is one case's stream: a line of the shape, the
// variant, then two more lines of the shape.
func shapeFallbackStream(from, to string) []string {
	variant := strings.Replace(shapeLine(2, "2400"), from, to, 1)
	return []string{shapeLine(1, "2400"), variant, shapeLine(3, "2600"), shapeLine(4, "2000")}
}

// TestParseSampleShapeFallback primes one workspace with a line, then
// sends a variant that matches the cached runs but for one change.
// Every variant must parse exactly as decodeSample parses it alone, and
// a rejected one must leave the rates map and the cached shape as they
// were. The next good line must hit the cache again: at once after a
// rejected line, and after an accepted one from the line after, since
// an accepted line of another layout becomes the cached shape (or, if
// only the decoder accepts it, clears it) and the next good line takes
// it back.
func TestParseSampleShapeFallback(t *testing.T) {
	// parse runs the line through the fast route by hand, to see
	// whether it hit the cached shape, and then through the decoder if
	// the fast route declines, as parseSampleInto does.
	parse := func(t *testing.T, ps *parseScratch, line string) (got parsed, hit bool) {
		t.Helper()
		if hit, ok := parseSampleFast([]byte(line), ps); ok {
			if cs, ok := finishSampleFast(ps, hit); ok {
				return parsed{cs: cs, powerW: ps.powerW, labelled: ps.labelled}, hit
			}
		}
		got.cs, got.powerW, got.labelled, got.reason, got.err = decodeSample([]byte(line), ps)
		return got, false
	}
	check := func(t *testing.T, ps *parseScratch, line string, wantHit bool) parsed {
		t.Helper()
		got, hit := parse(t, ps, line)
		want, _ := decodeFresh([]byte(line))
		if diff := diffParse(got, want); diff != "" {
			t.Fatalf("line %q: %s", line, diff)
		}
		if hit != wantHit {
			t.Fatalf("line %q: shape hit %v, want %v", line, hit, wantHit)
		}
		return got
	}
	for _, tc := range shapeFallbackCases {
		t.Run(tc.name, func(t *testing.T) {
			lines := shapeFallbackStream(tc.from, tc.to)
			if lines[1] == shapeLine(2, "2400") {
				t.Fatalf("%q is not in the line", tc.from)
			}
			var ps parseScratch
			check(t, &ps, lines[0], false)
			before := maps.Clone(ps.rates)
			got := check(t, &ps, lines[1], false)
			if (got.err != nil) != tc.rejected {
				t.Fatalf("variant %q: error %v, want rejected %v", lines[1], got.err, tc.rejected)
			}
			if tc.rejected {
				if !sameRates(ps.rates, before) {
					t.Fatalf("rejected variant changed the rates map from %v to %v", before, ps.rates)
				}
				check(t, &ps, lines[2], true)
				return
			}
			check(t, &ps, lines[2], false)
			check(t, &ps, lines[3], true)
		})
	}
}
