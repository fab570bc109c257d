package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The one-pass number conversion of the NDJSON fast parser must agree
// with strconv, the conversion encoding/json runs, bit for bit: the
// same float64 for every accepted token, and no value wherever strconv
// errors, so that the caller bails to the encoding/json route and its
// error message. FuzzParseNumber (parse_fuzz_test.go) explores beyond
// these cases.

// checkParseNumber converts s both ways and fails the test on any
// difference in value, sign or verdict.
func checkParseNumber(t *testing.T, s string) {
	t.Helper()
	got, next, ok := parseNumber([]byte(s), 0)
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		if ok {
			t.Errorf("parseNumber(%q) = %v, but strconv.ParseFloat errors: %v", s, got, err)
		}
		return
	}
	if !ok || next != len(s) {
		t.Errorf("parseNumber(%q) declined (ok %v, next %d); strconv.ParseFloat = %v", s, ok, next, want)
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("parseNumber(%q) = %v (%#016x), strconv.ParseFloat = %v (%#016x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestParseNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		// 2^53 − 1, 2^53 + 1 (halfway between two doubles), 2^53 + 3.
		"9007199254740991", "9007199254740993", "9007199254740995", "-9007199254740993",
		// 19 significant digits fill the mantissa; 20 and 25 overflow it,
		// with and without a nonzero digit past the 19th.
		"1234567890123456789", "9999999999999999999", "12345678901234567890",
		"12345678901234567891", "1234567890123456789012345", "1234567890123456789000000",
		"0.1234567890123456789012345", "1.0000000000000000000000001",
		"123456789012345678901234567890",
		// 10240000000000001024 is halfway between two doubles 2048
		// apart. Its first 19 digits fall just below the midpoint, so
		// only the digits past them decide that these round up.
		"10240000000000001024.5", "-10240000000000001024.0000000001", "10240000000000001024",
		// Subnormals: the smallest denormal, halfway below it, the
		// largest subnormal and the smallest normal.
		"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072009e-308", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1e-310", "-1e-320",
		// The top of the range, and past it.
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1e308", "1e400", "-1e400", "1e99999999999",
		// Underflow to zero is no error.
		"1e-400", "-1e-400", "1e-99999999999",
		// Zeros and leading zeros.
		"0", "-0", "0.0", "-0.0", "0e5", "-0E-5", "0.000",
		"0.000000000000000000000000000000000123", "0.000000000000000000000000000000001",
		// Wire-shaped values.
		"2400", "1.05", "31.25", "4.1e8", "1.2e+9", "2.0E-3", "0.4123456789012345",
	} {
		checkParseNumber(t, s)
	}

	// Seeded random doubles across the whole exponent range, in every
	// form a sampler might print them.
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 20000; {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		n++
		checkParseNumber(t, strconv.FormatFloat(f, 'g', -1, 64))
		checkParseNumber(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		// Moderate magnitudes in plain decimal form.
		small := rng.Float64() * math.Pow(10, float64(rng.Intn(22)-10))
		checkParseNumber(t, strconv.FormatFloat(small, 'f', -1, 64))
		checkParseNumber(t, strconv.FormatFloat(small, 'f', rng.Intn(25), 64))
		checkParseNumber(t, strconv.FormatFloat(small, 'g', -1, 64))
	}
}

func TestParseUintMatchesParseUint(t *testing.T) {
	check := func(s string) {
		t.Helper()
		got, next, ok := parseUint([]byte(s), 0)
		want, err := strconv.ParseUint(s, 10, 64)
		switch {
		case err != nil && ok:
			t.Errorf("parseUint(%q) = %d, but strconv.ParseUint errors: %v", s, got, err)
		case err == nil && (!ok || next != len(s) || got != want):
			t.Errorf("parseUint(%q) = %d (ok %v, next %d), strconv.ParseUint = %d", s, got, ok, next, want)
		}
	}
	for _, s := range []string{
		"0", "1", "1000000", "18446744073709551614", "18446744073709551615",
		"18446744073709551616", "18446744073709551619", "18446744073709551620",
		"99999999999999999999", "184467440737095516150", "100000000000000000000",
	} {
		check(s)
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 20000; n++ {
		check(strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10))
		// Random digit strings of up to 22 digits, no leading zero.
		var b strings.Builder
		b.WriteByte(byte('1' + rng.Intn(9)))
		for k := rng.Intn(22); k > 0; k-- {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		check(b.String())
	}

	// What encoding/json refuses for a uint64 field must not parse: a
	// sign, a fraction, an exponent. A leading zero ends the token.
	for _, s := range []string{"-1", "-0", "+1", "1.5", "1.0", "1e6", "1E6", "", "x"} {
		if v, _, ok := parseUint([]byte(s), 0); ok {
			t.Errorf("parseUint(%q) = %d, want a bailout", s, v)
		}
	}
	if _, next, ok := parseUint([]byte("01"), 0); ok && next == 2 {
		t.Error(`parseUint("01") consumed a leading-zero literal`)
	}
}

// TestPowersOfTenTable spot-checks the computed 128-bit table against
// values listed in the standard library's table.
func TestPowersOfTenTable(t *testing.T) {
	tab := detailedPowersOfTen()
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{1, 0, 0xA000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := tab[c.q-detailedPowersOfTenMinExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: got {%#x, %#x}, want {%#x, %#x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
}

// jsonValidNumber reports whether data is exactly one JSON number: a
// valid JSON text that starts like a number and has no whitespace
// around it.
func jsonValidNumber(data []byte) bool {
	return len(data) > 0 && (data[0] == '-' || isDigit(data[0])) &&
		!jsonWS(data[len(data)-1]) && json.Valid(data)
}
