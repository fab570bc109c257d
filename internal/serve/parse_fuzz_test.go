package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// FuzzParseSample is the differential oracle of the NDJSON sample
// parser. The input is split into lines the way the estimate handler
// splits a stream. Every line goes through parseSampleInto with one
// workspace shared across the input, so the line-shape cache carries
// over from line to line as it does on a stream, and through
// decodeSample (plain encoding/json) with a fresh workspace. Both must
// agree on the sample, the power label, the rejection reason and the
// error text. The seed corpus in testdata/fuzz/FuzzParseSample holds
// the wire gauntlet's streams and TestParseSampleShapeFallback's.
func FuzzParseSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var shared parseScratch
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			want, ok := decodeFresh(line)
			if !ok {
				continue
			}
			var got parsed
			got.cs, got.powerW, got.labelled, got.reason, got.err = parseSampleInto(line, &shared)
			if diff := diffParse(got, want); diff != "" {
				t.Fatalf("line %q: %s", line, diff)
			}
		}
	})
}

// parsed is the outcome of parsing one line.
type parsed struct {
	cs       core.CounterSample
	powerW   float64
	labelled bool
	reason   string
	err      error
}

// decodeFresh parses line through decodeSample, the encoding/json
// route, with a workspace of its own. ok is false when the decoder's
// outcome depends on map iteration order (ambiguousRates).
func decodeFresh(line []byte) (want parsed, ok bool) {
	var fresh parseScratch
	want.cs, want.powerW, want.labelled, want.reason, want.err = decodeSample(line, &fresh)
	return want, !ambiguousRates(fresh.ws.Rates)
}

// diffParse describes how got differs from want: the rejection reason
// and error text, and for an accepted line the sample bit for bit and
// the power label. It returns "" when they agree.
func diffParse(got, want parsed) string {
	if got.reason != want.reason || errText(got.err) != errText(want.err) {
		return fmt.Sprintf("parser rejects (%q, %q), decoder (%q, %q)",
			got.reason, errText(got.err), want.reason, errText(want.err))
	}
	if want.err != nil {
		return ""
	}
	g, w := got.cs, want.cs
	if g.TimeNs != w.TimeNs || g.FreqMHz != w.FreqMHz || math.Float64bits(g.VoltageV) != math.Float64bits(w.VoltageV) {
		return fmt.Sprintf("parser sample (%d, %d, %v), decoder (%d, %d, %v)",
			g.TimeNs, g.FreqMHz, g.VoltageV, w.TimeNs, w.FreqMHz, w.VoltageV)
	}
	if !sameRates(g.Rates, w.Rates) {
		return fmt.Sprintf("parser rates %v, decoder %v", g.Rates, w.Rates)
	}
	if got.labelled != want.labelled || math.Float64bits(got.powerW) != math.Float64bits(want.powerW) {
		return fmt.Sprintf("parser power_w (%v, %v), decoder (%v, %v)",
			got.powerW, got.labelled, want.powerW, want.labelled)
	}
	return ""
}

// sameRates reports whether a and b hold the same events with the same
// value bits.
func sameRates(a, b map[pmu.EventID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range b {
		if g, ok := a[id]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return false
		}
	}
	return true
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
