package serve

import (
	"bytes"
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
// event names, an event named twice, semantic rejections — bails out,
// so every error (message, reason, and field semantics such as
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
// its bytes: scanNumber's mantissa and exponent go to Eisel–Lemire
// with the table tens.
// Only a nonzero digit past the 19th significant one, or a value the
// algorithm declines (a halfway case, a subnormal, or out of range),
// sends the token to strconv.ParseFloat. !ok on a grammar failure or a
// ParseFloat error (1e400 overflows): encoding/json rejects those with
// its own message, so the caller bails to the slow path.
func (tens *powersOfTen) parseNumber(b []byte, i int) (v float64, next int, ok bool) {
	man, exp10, neg, trunc, next, ok := scanNumber(b, i)
	if !ok {
		return 0, 0, false
	}
	if !trunc {
		if v, ok := tens.eiselLemire64(man, exp10, neg); ok {
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

// The line-shape cache. A stream's lines differ from each other only
// in their numbers: a client renders every sample with the same keys,
// in the same order, with the same whitespace (bench/traffic.go and
// json.Marshal both do). So the scratch keeps the shape of the last
// line the fast scan accepted and resolved, and a later line is first
// matched against it: the byte runs between number tokens must be
// equal, and then only the numbers are scanned, by the same parseUint
// and parseNumber the full scan uses, straight into the slots the
// shape recorded. At the first difference the full scan reads the
// line again from its start. Because the full scan would read the same
// keys from the same bytes, a matched line yields exactly what the
// full scan yields on it.

// Number-token slots: what one number token of a line feeds.
const (
	slotTime uint8 = iota
	slotFreq
	slotVolt
	slotPower
	slotRate
)

type numSlot struct {
	kind uint8
	id   pmu.EventID // the event a slotRate token feeds
}

// lineShape is one line's layout: its bytes with the number tokens cut
// out (skel), where each token was cut (cuts[k] is token k's offset in
// skel) and what each token feeds (slots[k]). The run before token k is
// skel[cuts[k-1]:cuts[k]], from 0 for the first; the run after the last
// token reaches the object's closing brace.
type lineShape struct {
	skel  []byte
	cuts  []int
	slots []numSlot
}

// parseSampleFast scans one wireSample object out of line into ps: the
// ws fields TimeNs, FreqMHz and VoltageV, the power label and the
// rates as (event, value) pairs in line order (rateIDs, rateVals).
// hit reports that the line had the cached shape; otherwise the full
// scan recorded the line's own shape in ps.next. ok is false whenever
// the input strays from the common form (escapes, null, unknown keys
// or events, an event named twice, numbers outside the grammar); the
// caller must then re-parse via encoding/json. Mirrored semantics
// worth noting: trailing bytes after the closing brace are ignored
// (json.Decoder.Decode reads one value and stops), and a repeated
// scalar key overwrites the previous one, exactly as encoding/json
// does when decoding into a struct.
func parseSampleFast(line []byte, ps *parseScratch) (hit, ok bool) {
	if ps.tens == nil {
		ps.tens = detailedPowersOfTen()
	}
	if ps.shapeOK {
		ps.resetLine()
		if ps.matchShape(line) {
			return true, true
		}
	}
	ps.resetLine()
	nx := &ps.next
	nx.skel, nx.cuts, nx.slots = nx.skel[:0], nx.cuts[:0], nx.slots[:0]
	return false, ps.scan(line)
}

// resetLine clears the per-line results a scan writes. It keeps the
// slow path's reusable decoded map; the fast path never touches
// ws.Rates.
func (ps *parseScratch) resetLine() {
	ps.ws = wireSample{Rates: ps.ws.Rates}
	ps.powerW, ps.labelled = 0, false
	ps.rateIDs, ps.rateVals = ps.rateIDs[:0], ps.rateVals[:0]
}

// matchShape reports whether line has the cached shape through the
// closing brace: each token's preceding run byte for byte, then the
// token itself, stored.
func (ps *parseScratch) matchShape(line []byte) bool {
	sh := &ps.shape
	i, from := 0, 0
	for k, slot := range sh.slots {
		run := sh.skel[from:sh.cuts[k]]
		if !bytes.HasPrefix(line[i:], run) {
			return false
		}
		next, ok := ps.token(line, i+len(run), slot)
		if !ok {
			return false
		}
		i, from = next, sh.cuts[k]
	}
	return bytes.HasPrefix(line[i:], sh.skel[from:])
}

// scan is the full fast scan of line. It appends the layout it reads
// to ps.next. A rate whose event the line has named already, under
// either spelling, ends the scan: the decoder resolves it.
func (ps *parseScratch) scan(line []byte) bool {
	nx := &ps.next
	var named uint64 // bit id is set once the line names event id
	i := skipJSONWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipJSONWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		nx.skel = append(nx.skel, line[:i+1]...)
		return true // empty object: zero-valued sample, like json
	}
	prev := 0 // the end of the last token, where the next run starts
	inRates, afterValue := false, false
	for {
		if afterValue {
			i = skipJSONWS(line, i)
			if i >= len(line) {
				return false
			}
			switch line[i] {
			case ',':
				i = skipJSONWS(line, i+1)
			case '}':
				i++
				if inRates {
					inRates = false
					continue
				}
				nx.skel = append(nx.skel, line[prev:i]...)
				return true
			default:
				return false
			}
		}
		afterValue = true
		key, next, ok := scanSimpleString(line, i)
		if !ok {
			return false
		}
		i = skipJSONWS(line, next)
		if i >= len(line) || line[i] != ':' {
			return false
		}
		i = skipJSONWS(line, i+1)
		var slot numSlot
		if inRates {
			id, ok := pmu.IDByName(key)
			if !ok || named&(1<<id) != 0 {
				return false // the slow path owns the name errors
			}
			named |= 1 << id
			slot = numSlot{kind: slotRate, id: id}
		} else {
			switch string(key) {
			case "time_ns":
				slot.kind = slotTime
			case "freq_mhz":
				slot.kind = slotFreq
			case "voltage_v":
				slot.kind = slotVolt
			case "power_w":
				slot.kind = slotPower
			case "rates":
				if i >= len(line) || line[i] != '{' {
					return false
				}
				i = skipJSONWS(line, i+1)
				if i < len(line) && line[i] == '}' {
					i++
				} else {
					inRates, afterValue = true, false
				}
				continue
			default:
				// Unknown key: the slow path owns the
				// DisallowUnknownFields error.
				return false
			}
		}
		nx.skel = append(nx.skel, line[prev:i]...)
		nx.cuts = append(nx.cuts, len(nx.skel))
		nx.slots = append(nx.slots, slot)
		if i, ok = ps.token(line, i, slot); !ok {
			return false
		}
		prev = i
	}
}

// token scans the number token at line[i:] the way slot's key is
// decoded (time_ns as a uint64, the rest as float64) and stores it.
func (ps *parseScratch) token(line []byte, i int, slot numSlot) (next int, ok bool) {
	if slot.kind == slotTime {
		var v uint64
		if v, next, ok = parseUint(line, i); ok {
			ps.ws.TimeNs = v
		}
		return next, ok
	}
	var v float64
	if v, next, ok = ps.tens.parseNumber(line, i); !ok {
		return 0, false
	}
	switch slot.kind {
	case slotFreq:
		ps.ws.FreqMHz = v
	case slotVolt:
		ps.ws.VoltageV = v
	case slotPower:
		ps.powerW, ps.labelled = v, true
	default:
		ps.rateIDs = append(ps.rateIDs, slot.id)
		ps.rateVals = append(ps.rateVals, v)
	}
	return next, true
}

// finishSampleFast resolves a fast-parsed sample into core types. !ok
// when the operating point is invalid: the slow path re-parses and
// produces the identical error, so a rejected line costs a second
// parse but behaves exactly as before. Nothing is written before that
// check, so a rejected line leaves the rates map and the cached shape
// as they were. A line with the cached shape has the map's key set
// already and overwrites its values in place; any other line rebuilds
// the map and becomes the cached shape.
func finishSampleFast(ps *parseScratch, hit bool) (core.CounterSample, bool) {
	freq, err := validFreqMHz(ps.ws.FreqMHz)
	if err != nil {
		return core.CounterSample{}, false
	}
	if !hit {
		if ps.rates == nil {
			ps.rates = make(map[pmu.EventID]float64, len(ps.rateIDs))
		} else {
			clear(ps.rates)
		}
		ps.shape, ps.next = ps.next, ps.shape
		ps.shapeOK = true
	}
	for k, id := range ps.rateIDs {
		ps.rates[id] = ps.rateVals[k]
	}
	return core.CounterSample{
		TimeNs:   ps.ws.TimeNs,
		FreqMHz:  freq,
		VoltageV: ps.ws.VoltageV,
		Rates:    ps.rates,
	}, true
}
