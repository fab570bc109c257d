package serve

import (
	"math"
	"strconv"

	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// Fast-path NDJSON sample parsing.
//
// The estimate hot path used to spend the majority of its CPU inside
// encoding/json (a Decoder per line over a five-field object). This
// hand scanner parses exactly the wireSample shape — an object of
// known keys whose values are JSON numbers plus one flat
// string→number map — directly from the line bytes, with zero
// reflection and no per-line decoder state.
//
// Correctness contract: the fast path either fully succeeds on input
// that encoding/json would also accept with the same result, or it
// reports !ok and the caller re-parses through the encoding/json
// route. Anything exotic — escape sequences, unknown or non-object
// top level, `null` values, numbers outside JSON grammar, unknown
// event names, semantic rejections — bails out, so every error
// (message, reason, and field semantics such as
// DisallowUnknownFields and last-key-wins) is still produced by the
// encoding/json route, decodeSample. The fast path can therefore never
// change what a client observes, only how fast the common case is
// served; FuzzParseSample checks it against decodeSample line by line.

// jsonWS reports JSON insignificant whitespace.
func jsonWS(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

func skipJSONWS(b []byte, i int) int {
	for i < len(b) && jsonWS(b[i]) {
		i++
	}
	return i
}

// scanSimpleString scans a JSON string starting at b[i] (which must
// be '"') containing no escapes and no control characters, returning
// the contents (borrowed from b) and the index just past the closing
// quote. Escapes are valid JSON but rare in this wire format, so they
// take the slow path rather than an unescaping buffer here.
func scanSimpleString(b []byte, i int) (contents []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch {
		case b[j] == '"':
			return b[start:j], j + 1, true
		case b[j] == '\\' || b[j] < 0x20:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// isDigit reports an ASCII decimal digit.
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// maxMantDigits is the number of significant decimal digits a uint64
// mantissa always holds exactly (10^19 < 2^64), strconv's limit too.
const maxMantDigits = 19

// scanNumber scans the JSON number at b[i:] in one pass. It checks the
// RFC 8259 grammar (an optional minus, no leading zeros, at least one
// digit after a '.', after an 'e' and its sign) while it folds the
// first 19 significant digits into man and the decimal point's place
// into exp10, so the value is ±man·10^exp10. trunc reports a nonzero
// digit beyond the 19th, where man no longer holds the value exactly.
// next is the index just past the number; ok is false when b[i:] does
// not start with one. The digit accounting follows strconv's
// readFloat, so the (man, exp10) pair is the one ParseFloat converts.
func scanNumber(b []byte, i int) (man uint64, exp10 int, neg, trunc bool, next int, ok bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	// nMant counts the digits folded into man; dp is the decimal
	// point's place counted from the first significant digit.
	nMant, dp := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++ // a lone zero integer part: no significant digit
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			dp++
			if nMant < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				nMant++
			} else if b[i] != '0' {
				trunc = true
			}
		}
	default:
		return 0, 0, false, false, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, false, false, 0, false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			switch {
			case man == 0 && b[i] == '0':
				dp-- // a leading zero of the fraction
			case nMant < maxMantDigits:
				man = man*10 + uint64(b[i]-'0')
				nMant++
			case b[i] != '0':
				trunc = true
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, false, false, 0, false
		}
		// Past 10000 the exponent is out of every float's range either
		// way; capping it keeps the sum from overflowing.
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	if man != 0 {
		exp10 = dp - nMant
	}
	return man, exp10, neg, trunc, i, true
}

// parseNumber scans and converts one JSON number in a single pass over
// its bytes: scanNumber's mantissa and exponent go to Eisel–Lemire.
// Only a nonzero digit past the 19th significant one, or a value the
// algorithm declines (a halfway case, a subnormal, or out of range),
// sends the token to strconv.ParseFloat. !ok on a grammar failure or a
// ParseFloat error (1e400 overflows): encoding/json rejects those with
// its own message, so the caller bails to the slow path.
func parseNumber(b []byte, i int) (v float64, next int, ok bool) {
	man, exp10, neg, trunc, next, ok := scanNumber(b, i)
	if !ok {
		return 0, 0, false
	}
	if !trunc {
		if v, ok := eiselLemire64(man, exp10, neg); ok {
			return v, next, true
		}
	}
	v, err := strconv.ParseFloat(string(b[i:next]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, next, true
}

// parseUint scans the unsigned JSON integer at b[i:] in one pass, as
// encoding/json decodes a uint64 field. A sign, a fraction, an
// exponent or a value past 2^64−1 fails it (!ok), and the caller
// bails to the slow path, which owns those errors.
func parseUint(b []byte, i int) (v uint64, next int, ok bool) {
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			d := uint64(b[i] - '0')
			if v > math.MaxUint64/10 || v == math.MaxUint64/10 && d > math.MaxUint64%10 {
				return 0, 0, false
			}
			v = v*10 + d
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, 0, false
	}
	return v, i, true
}

// parseSampleFast scans one wireSample object out of line into ps,
// filling ps.ws (except Rates and PowerW), the label fields and the
// borrowed ps.rateNames / ps.rateVals pairs. It returns false whenever the input strays from
// the common shape; the caller must then re-parse via encoding/json.
// Mirrored semantics worth noting: trailing bytes after the closing
// brace are ignored (json.Decoder.Decode reads one value and stops),
// and a repeated key overwrites — or for "rates", merges into — the
// previous one, exactly as encoding/json does when decoding into a
// struct and a non-nil map.
func parseSampleFast(line []byte, ps *parseScratch) bool {
	ps.rateNames = ps.rateNames[:0]
	ps.rateVals = ps.rateVals[:0]
	ps.powerW, ps.labelled = 0, false
	// Keep the slow path's reusable decoded map across a bailout; the
	// fast path itself never touches ws.Rates.
	ps.ws = wireSample{Rates: ps.ws.Rates}

	i := skipJSONWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipJSONWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		return true // empty object: zero-valued sample, like json
	}
	for {
		key, next, ok := scanSimpleString(line, i)
		if !ok {
			return false
		}
		i = skipJSONWS(line, next)
		if i >= len(line) || line[i] != ':' {
			return false
		}
		i = skipJSONWS(line, i+1)
		switch string(key) {
		case "time_ns":
			v, next, ok := parseUint(line, i)
			if !ok {
				return false
			}
			ps.ws.TimeNs = v
			i = next
		case "freq_mhz":
			v, next, ok := parseNumber(line, i)
			if !ok {
				return false
			}
			ps.ws.FreqMHz = v
			i = next
		case "voltage_v":
			v, next, ok := parseNumber(line, i)
			if !ok {
				return false
			}
			ps.ws.VoltageV = v
			i = next
		case "power_w":
			v, next, ok := parseNumber(line, i)
			if !ok {
				return false
			}
			ps.powerW, ps.labelled = v, true
			i = next
		case "rates":
			if i >= len(line) || line[i] != '{' {
				return false
			}
			i = skipJSONWS(line, i+1)
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			for {
				name, next, ok := scanSimpleString(line, i)
				if !ok {
					return false
				}
				i = skipJSONWS(line, next)
				if i >= len(line) || line[i] != ':' {
					return false
				}
				i = skipJSONWS(line, i+1)
				v, next2, ok := parseNumber(line, i)
				if !ok {
					return false
				}
				ps.rateNames = append(ps.rateNames, name)
				ps.rateVals = append(ps.rateVals, v)
				i = skipJSONWS(line, next2)
				if i >= len(line) {
					return false
				}
				if line[i] == ',' {
					i = skipJSONWS(line, i+1)
					continue
				}
				if line[i] == '}' {
					i++
					break
				}
				return false
			}
		default:
			// Unknown key: the slow path owns the
			// DisallowUnknownFields error.
			return false
		}
		i = skipJSONWS(line, i)
		if i >= len(line) {
			return false
		}
		if line[i] == ',' {
			i = skipJSONWS(line, i+1)
			continue
		}
		if line[i] == '}' {
			return true
		}
		return false
	}
}

// finishSampleFast resolves a fast-parsed sample into core types. !ok
// on any rejection (invalid operating point, unknown event): the slow
// path re-parses and produces the identical error in the identical
// order, so rejected lines cost a second parse but behave exactly as
// before.
func finishSampleFast(ps *parseScratch) (core.CounterSample, bool) {
	freq, err := validFreqMHz(ps.ws.FreqMHz)
	if err != nil {
		return core.CounterSample{}, false
	}
	if ps.namesMatchCache() {
		// Same key set as the previous line: overwrite values in place.
		for k, id := range ps.idCache {
			ps.rates[id] = ps.rateVals[k]
		}
	} else {
		ps.cacheValid = false
		if ps.rates == nil {
			ps.rates = make(map[pmu.EventID]float64, len(ps.rateNames))
		} else {
			clear(ps.rates)
		}
		ps.keyCache = ps.keyCache[:0]
		ps.idCache = ps.idCache[:0]
		for k, name := range ps.rateNames {
			ev, err := pmu.ByName(string(name))
			if err != nil {
				return core.CounterSample{}, false
			}
			ps.rates[ev.ID] = ps.rateVals[k]
			ps.keyCache = append(append(ps.keyCache, name...), 0xff)
			ps.idCache = append(ps.idCache, ev.ID)
		}
		ps.cacheValid = true
	}
	return core.CounterSample{
		TimeNs:   ps.ws.TimeNs,
		FreqMHz:  freq,
		VoltageV: ps.ws.VoltageV,
		Rates:    ps.rates,
	}, true
}
