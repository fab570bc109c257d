package serve

import (
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

// scanJSONNumber returns the length of a valid JSON number literal at
// the start of b (per the RFC 8259 grammar: no leading zeros, no bare
// '.', no trailing junk inside the token), or 0 if b does not start
// with one.
func scanJSONNumber(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i++
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
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

// parseNumber scans and converts one JSON number; !ok on grammar or
// conversion failure (overflow etc. — encoding/json rejects those
// with its own message, so the caller bails to the slow path).
func parseNumber(b []byte, i int) (v float64, next int, ok bool) {
	n := scanJSONNumber(b[i:])
	if n == 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseFloat(string(b[i:i+n]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i + n, true
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
			// uint64 field: encoding/json accepts only an unsigned
			// integer literal here (no sign, fraction, or exponent).
			n := scanJSONNumber(line[i:])
			if n == 0 {
				return false
			}
			for _, c := range line[i : i+n] {
				if c < '0' || c > '9' {
					return false
				}
			}
			v, err := strconv.ParseUint(string(line[i:i+n]), 10, 64)
			if err != nil {
				return false
			}
			ps.ws.TimeNs = v
			i += n
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
