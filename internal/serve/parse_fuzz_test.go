package serve

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"pmcpower/internal/pmu"
)

// FuzzParseSample is the differential oracle of the NDJSON sample
// parser. The input is split into lines the way the estimate handler
// splits a stream. Every line goes through parseSampleInto with one
// workspace shared across the input, so the resolved-name cache
// carries over from line to line as it does on a stream, and through
// decodeSample (plain encoding/json) with a fresh workspace. Both must
// agree on the sample, the power label, the rejection reason and the
// error text. The seed corpus in testdata/fuzz/FuzzParseSample holds
// the wire gauntlet's streams.
func FuzzParseSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var shared parseScratch
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var fresh parseScratch
			want, wantPower, wantLabelled, wantReason, wantErr := decodeSample(line, &fresh)
			if ambiguousRates(fresh.ws.Rates) {
				continue
			}
			got, gotPower, gotLabelled, gotReason, gotErr := parseSampleInto(line, &shared)
			if gotReason != wantReason || errText(gotErr) != errText(wantErr) {
				t.Fatalf("line %q: parser rejects (%q, %q), decoder (%q, %q)",
					line, gotReason, errText(gotErr), wantReason, errText(wantErr))
			}
			if wantErr != nil {
				continue
			}
			if got.TimeNs != want.TimeNs || got.FreqMHz != want.FreqMHz ||
				math.Float64bits(got.VoltageV) != math.Float64bits(want.VoltageV) {
				t.Fatalf("line %q: parser sample (%d, %d, %v), decoder (%d, %d, %v)", line,
					got.TimeNs, got.FreqMHz, got.VoltageV, want.TimeNs, want.FreqMHz, want.VoltageV)
			}
			if len(got.Rates) != len(want.Rates) {
				t.Fatalf("line %q: parser rates %v, decoder %v", line, got.Rates, want.Rates)
			}
			for id, v := range want.Rates {
				if g, ok := got.Rates[id]; !ok || math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("line %q: parser rates %v, decoder %v", line, got.Rates, want.Rates)
				}
			}
			if gotLabelled != wantLabelled || math.Float64bits(gotPower) != math.Float64bits(wantPower) {
				t.Fatalf("line %q: parser power_w (%v, %v), decoder (%v, %v)",
					line, gotPower, gotLabelled, wantPower, wantLabelled)
			}
		}
	})
}

// ambiguousRates reports whether the decoder resolves a rates object
// in map-iteration order, which makes the oracle itself
// nondeterministic: two keys naming one event (LST_INS and
// PAPI_LST_INS) leave the stored value to chance, and two unknown keys
// leave the error message to chance.
func ambiguousRates(rates map[string]float64) bool {
	seen := make(map[pmu.EventID]bool, len(rates))
	unknown := 0
	for name := range rates {
		ev, err := pmu.ByName(name)
		if err != nil {
			unknown++
			continue
		}
		if seen[ev.ID] {
			return true
		}
		seen[ev.ID] = true
	}
	return unknown > 1
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzParseNumber checks the one-pass number conversion against
// encoding/json and strconv. On any input, scanNumber accepts the
// whole input exactly when json.Valid sees a bare number; on an
// accepted one, parseNumber returns strconv.ParseFloat's value bit for
// bit, and no value where ParseFloat errors.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "2400", "1.05", "4.1e8", "0.4123456789012345", "9007199254740993",
		"1234567890123456789012345", "10240000000000001024.5", "4.9406564584124654e-324", "2.2250738585072011e-308",
		"1.7976931348623157e308", "1e400", "1e-400", "0.000000000000000000000000000000000123",
		"01", "1.", ".5", "-", "1e", "1e+", "--1", "1 ",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _, next, ok := scanNumber(data, 0)
		accepts := ok && next == len(data)
		if want := jsonValidNumber(data); accepts != want {
			t.Fatalf("scanNumber(%q) accepts=%v, json.Valid bare number=%v", data, accepts, want)
		}
		if !accepts {
			return
		}
		got, next, ok := parseNumber(data, 0)
		want, err := strconv.ParseFloat(string(data), 64)
		if err != nil {
			if ok {
				t.Fatalf("parseNumber(%q) = %v, but strconv.ParseFloat errors: %v", data, got, err)
			}
			return
		}
		if !ok || next != len(data) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v (ok %v, next %d), strconv.ParseFloat = %v", data, got, ok, next, want)
		}
	})
}
